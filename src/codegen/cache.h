//===--- codegen/cache.h - content-addressed compile cache interface ---------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native engine's compiled-object cache, content-addressed so that a
/// cache directory can be shared across processes and daemon restarts
/// ("compile once, serve many"). The key is a 128-bit FNV-1a hash over the
/// program text, the compile options that change the generated code or its
/// binary, the ddr_* runtime ABI version, the runtime headers the generated
/// code includes, and the host compiler identity and fixed flags —
/// replacing the earlier std::hash<std::string> size_t key, which had no
/// collision guarantee, was unstable across standard libraries, and omitted
/// ABI and compiler identity entirely.
///
/// Cache directory layout (Opts.WorkDir, or <temp>/diderot-cpp):
///   ddr-<32-hex-key>.so    the compiled shared object
///   ddr-<32-hex-key>.cpp   the generated translation unit (KeepCpp only)
///   index.tsv              inventory: one line per cached artifact,
///                          "<key>\t<program>\t<unix-ms>\t<compiler-id>
///                           \t<so-bytes>\t<so-hash>\t<last-used-ms>"
///   quarantine/            artifacts that failed integrity checks, moved
///                          aside (never deleted) for post-mortem
///
/// The index is rewritten via temp-file + rename (atomic within the
/// directory), so a crash mid-update leaves either the old or the new
/// index, never a torn one. Rows carry the artifact's size and Hash128 so
/// a disk-hit can be verified before dlopen — a corrupt .so (crashed
/// writer, bit rot) is quarantined and recompiled instead of loaded. A row
/// with fewer than seven columns is malformed and skipped; its artifact is
/// then unverifiable, like one with no row at all.
///
/// Invalidation is by key, never in place: a new ABI revision, runtime
/// header edit, compiler, or flag set hashes to new file names and old
/// entries simply go cold (or are LRU-evicted once a --cache-max-bytes cap
/// is set).
/// serve/compile_cache.h reads the index.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_CODEGEN_CACHE_H
#define DIDEROT_CODEGEN_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "runtime/ddr_abi.h"
#include "support/hash.h"

namespace diderot::codegen {

/// Identity of the host toolchain baked into cache keys: the configured
/// compiler path plus the version banner of the compiler that built this
/// driver. Deliberately NOT the DIDEROT_CXX environment override — that is
/// an operational redirect (and the poison-the-compiler cache tests rely on
/// a warm cache surviving it), not a different artifact identity.
std::string hostCompilerId();

/// The runtime headers every generated translation unit compiles against:
/// the `#include "..."` closure of runtime/native_prelude.h under the
/// source root \p SrcDir (the host compiler's -I), as sorted paths
/// relative to \p SrcDir.
std::vector<std::string> runtimeHeaderClosure(const std::string &SrcDir);

/// Digest of the paths and bytes of runtimeHeaderClosure(\p SrcDir). The
/// generated C++ text only names the prelude, so without this an edited
/// runtime header would keep serving objects built from the old one.
support::Hash128 runtimeHeaderDigest(const std::string &SrcDir);

/// The cache key for \p Text compiled under \p Opts. \p Text is whatever
/// feeds the next stage: the native loader keys on the generated C++
/// translation unit; the serve daemon keys its program registry on Diderot
/// source. Both incorporate every CompileOptions field that changes the
/// result, plus DdrAbiVersion, hostCompilerId(), the fixed host-compiler
/// flags and the runtime header digest (computed once per process from the
/// configured source root).
support::Hash128 programCacheKey(const std::string &Text,
                                 const CompileOptions &Opts);
/// As above with an explicit runtime header digest.
support::Hash128 programCacheKey(const std::string &Text,
                                 const CompileOptions &Opts,
                                 const support::Hash128 &RuntimeDigest);

/// Name of the index file inside a cache directory.
inline const char *cacheIndexFile() { return "index.tsv"; }

/// Subdirectory corrupt artifacts are moved into (never deleted in place).
inline const char *cacheQuarantineDir() { return "quarantine"; }

/// One row of the cache index.
struct CacheIndexEntry {
  std::string Key;        ///< 32-hex content key (artifact stem is ddr-<key>)
  std::string Program;    ///< program name at compile time
  int64_t UnixMs = 0;     ///< when the host compile happened
  std::string CompilerId; ///< hostCompilerId() that built it
  int64_t SoBytes = -1;   ///< .so size at install time
  std::string SoHash;     ///< 32-hex fnv1a128 of the .so; empty = unknown
  int64_t LastUsedMs = 0; ///< recency for LRU eviction (install or last hit)
};

/// Parse \p Dir's index.tsv. Missing file = empty vector; malformed lines
/// are skipped — the index is an inventory, the .so files are the cache.
std::vector<CacheIndexEntry> readCacheIndexEntries(const std::string &Dir);

/// Record a just-installed artifact: hash and stat ddr-<key>.so, then
/// upsert its index row via an atomic temp-file + rename rewrite.
/// Best-effort — index failures never fail a compile.
void recordCacheArtifact(const std::string &Dir, const std::string &Key,
                         const std::string &Program);

/// Refresh a disk-hit artifact's LastUsedMs so LRU eviction sees it as
/// warm. Best-effort, atomic rewrite as above.
void touchCacheArtifact(const std::string &Dir, const std::string &Key);

/// Outcome of checking an on-disk artifact against its index row.
enum class ArtifactVerdict {
  Ok,           ///< size and hash match the index
  Unverifiable, ///< no index row — load it, quarantine if it fails
  Corrupt,      ///< size or hash mismatch — quarantine and recompile
};
ArtifactVerdict verifyCacheArtifact(const std::string &Dir,
                                    const std::string &Key);

/// Move a corrupt artifact into quarantine/ (with a .reason sidecar) and
/// drop its index row, so the caller's recompile sees a clean miss.
void quarantineCacheArtifact(const std::string &Dir, const std::string &Key,
                             const std::string &Reason);

/// Evict least-recently-used artifacts until the directory's total
/// ddr-*.so bytes fit \p MaxBytes. \p ProtectKey (typically the artifact
/// just installed) is never evicted. Returns the number evicted.
uint64_t enforceCacheCap(const std::string &Dir, uint64_t MaxBytes,
                         const std::string &ProtectKey = {});

/// Process-lifetime counters for the native compile cache, exposed so the
/// serve daemon can report cache effectiveness without reaching into the
/// loader. Monotonic; read with relaxed ordering.
struct NativeCacheStats {
  uint64_t MemHits = 0;      ///< .so already dlopen'd in this process
  uint64_t DiskHits = 0;     ///< .so found on disk; dlopen'd without compiling
  uint64_t HostCompiles = 0; ///< host compiler actually invoked
  uint64_t CompileTimeouts = 0; ///< supervised compiles killed at the budget
  uint64_t Quarantined = 0;  ///< corrupt artifacts moved into quarantine/
  uint64_t Evicted = 0;      ///< artifacts removed by the LRU size cap
};
NativeCacheStats nativeCacheStats();

/// The two counters owned by the cache maintenance layer (cache.cpp);
/// folded into nativeCacheStats() by the loader.
uint64_t cacheQuarantineCount();
uint64_t cacheEvictionCount();

} // namespace diderot::codegen

#endif // DIDEROT_CODEGEN_CACHE_H
