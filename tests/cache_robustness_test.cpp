//===--- tests/cache_robustness_test.cpp - compile-cache crash consistency ---===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
// codegen/cache.h maintenance layer against hostile on-disk state: index
// round-trips, short (4-column) rows, truncated/garbage index lines,
// artifact verification against size + hash, quarantine of corrupt .so
// files, and LRU eviction under a byte cap. Everything here works on
// synthetic cache directories — no host compiles, no dlopen.
//
//===----------------------------------------------------------------------===//

#include "codegen/cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fs = std::filesystem;
using namespace diderot;
using namespace diderot::codegen;

namespace {

/// A throwaway cache directory, removed on destruction.
struct TempCacheDir {
  fs::path Dir;
  TempCacheDir() {
    Dir = fs::temp_directory_path() /
          ("ddr-cache-test-" + std::to_string(::getpid()) + "-" +
           std::to_string(reinterpret_cast<uintptr_t>(this)));
    fs::create_directories(Dir);
  }
  ~TempCacheDir() {
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
  }
  std::string str() const { return Dir.string(); }

  /// Plant a fake artifact ddr-<key>.so with the given contents.
  void plantSo(const std::string &Key, const std::string &Contents) const {
    std::ofstream Out(Dir / ("ddr-" + Key + ".so"), std::ios::binary);
    Out << Contents;
  }

  std::string soPath(const std::string &Key) const {
    return (Dir / ("ddr-" + Key + ".so")).string();
  }
};

/// 32-hex keys (what a Hash128 hex digest looks like).
std::string fakeKey(char Fill) { return std::string(32, Fill); }

const CacheIndexEntry *findEntry(const std::vector<CacheIndexEntry> &Es,
                                 const std::string &Key) {
  for (const CacheIndexEntry &E : Es)
    if (E.Key == Key)
      return &E;
  return nullptr;
}

TEST(CacheIndex, RecordThenReadRoundTrips) {
  TempCacheDir T;
  std::string K = fakeKey('a');
  T.plantSo(K, "fake shared object bytes");
  recordCacheArtifact(T.str(), K, "prog.diderot");

  auto Entries = readCacheIndexEntries(T.str());
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0].Key, K);
  EXPECT_EQ(Entries[0].Program, "prog.diderot");
  EXPECT_EQ(Entries[0].SoBytes,
            static_cast<int64_t>(std::string("fake shared object bytes").size()));
  EXPECT_EQ(Entries[0].SoHash.size(), 32u);
  EXPECT_GT(Entries[0].UnixMs, 0);
  EXPECT_GE(Entries[0].LastUsedMs, Entries[0].UnixMs);
}

TEST(CacheIndex, MissingIndexIsEmptyNotAnError) {
  TempCacheDir T;
  EXPECT_TRUE(readCacheIndexEntries(T.str()).empty());
}

TEST(CacheIndex, FourColumnRowsAreSkipped) {
  TempCacheDir T;
  std::string K = fakeKey('b');
  {
    std::ofstream Out(T.Dir / cacheIndexFile());
    Out << K << "\tlegacy.diderot\t1700000000000\tg++ 13\n";
  }
  EXPECT_TRUE(readCacheIndexEntries(T.str()).empty());
}

TEST(CacheIndex, TruncatedAndGarbageLinesAreSkipped) {
  TempCacheDir T;
  std::string Good = fakeKey('c');
  {
    std::ofstream Out(T.Dir / cacheIndexFile());
    Out << "torn-line-without-tabs\n";
    Out << "shortkey\tprog\t1\tid\n"; // key is not 32 hex chars
    Out << Good << "\tok.diderot\t1700000000000\tg++ 13\t5\t" << fakeKey('9')
        << "\t1700000000000\n";
    Out << Good.substr(0, 30); // torn final line (crash mid-write of a
                               // pre-atomic-rename index)
  }
  auto Entries = readCacheIndexEntries(T.str());
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0].Key, Good);
}

TEST(CacheIndex, TouchRefreshesLastUsed) {
  TempCacheDir T;
  std::string K = fakeKey('d');
  T.plantSo(K, "bytes");
  recordCacheArtifact(T.str(), K, "prog");
  auto Before = readCacheIndexEntries(T.str());
  ASSERT_EQ(Before.size(), 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  touchCacheArtifact(T.str(), K);
  auto After = readCacheIndexEntries(T.str());
  ASSERT_EQ(After.size(), 1u);
  EXPECT_GT(After[0].LastUsedMs, Before[0].LastUsedMs);
  EXPECT_EQ(After[0].SoHash, Before[0].SoHash); // touch never rehashes

  // Touching a key with no row is a no-op, not a row invention.
  touchCacheArtifact(T.str(), fakeKey('e'));
  EXPECT_EQ(readCacheIndexEntries(T.str()).size(), 1u);
}

TEST(CacheVerify, OkWhenSizeAndHashMatch) {
  TempCacheDir T;
  std::string K = fakeKey('f');
  T.plantSo(K, "correct contents");
  recordCacheArtifact(T.str(), K, "prog");
  EXPECT_EQ(verifyCacheArtifact(T.str(), K), ArtifactVerdict::Ok);
}

TEST(CacheVerify, UnverifiableWithoutARowOrWithAV1Row) {
  TempCacheDir T;
  std::string K = fakeKey('1');
  T.plantSo(K, "whatever");
  // No index row at all.
  EXPECT_EQ(verifyCacheArtifact(T.str(), K), ArtifactVerdict::Unverifiable);
  // A 4-column row (no size/hash columns) is skipped: still no row.
  {
    std::ofstream Out(T.Dir / cacheIndexFile());
    Out << K << "\tprog\t1\tid\n";
  }
  EXPECT_EQ(verifyCacheArtifact(T.str(), K), ArtifactVerdict::Unverifiable);
}

TEST(CacheVerify, ZeroByteArtifactIsCorrupt) {
  TempCacheDir T;
  std::string K = fakeKey('2');
  T.plantSo(K, "real contents");
  recordCacheArtifact(T.str(), K, "prog");
  T.plantSo(K, ""); // crash-truncated to zero bytes after install
  EXPECT_EQ(verifyCacheArtifact(T.str(), K), ArtifactVerdict::Corrupt);
}

TEST(CacheVerify, BitFlippedArtifactIsCorrupt) {
  TempCacheDir T;
  std::string K = fakeKey('3');
  std::string Contents = "some shared object contents";
  T.plantSo(K, Contents);
  recordCacheArtifact(T.str(), K, "prog");
  Contents[4] ^= 0x01; // same size, one flipped bit
  T.plantSo(K, Contents);
  EXPECT_EQ(verifyCacheArtifact(T.str(), K), ArtifactVerdict::Corrupt);
}

TEST(CacheVerify, MissingArtifactWithARowIsCorrupt) {
  TempCacheDir T;
  std::string K = fakeKey('4');
  T.plantSo(K, "contents");
  recordCacheArtifact(T.str(), K, "prog");
  fs::remove(T.Dir / ("ddr-" + K + ".so"));
  EXPECT_EQ(verifyCacheArtifact(T.str(), K), ArtifactVerdict::Corrupt);
}

TEST(CacheQuarantine, MovesTheArtifactAndDropsTheRow) {
  TempCacheDir T;
  std::string K = fakeKey('5');
  T.plantSo(K, "poisoned");
  recordCacheArtifact(T.str(), K, "prog");
  uint64_t Before = cacheQuarantineCount();

  quarantineCacheArtifact(T.str(), K, "hash mismatch in test");

  EXPECT_FALSE(fs::exists(T.soPath(K))); // moved out of the serving path
  EXPECT_EQ(findEntry(readCacheIndexEntries(T.str()), K), nullptr);
  EXPECT_EQ(cacheQuarantineCount(), Before + 1);

  // The artifact and a .reason sidecar landed in quarantine/.
  fs::path Q = T.Dir / cacheQuarantineDir();
  ASSERT_TRUE(fs::is_directory(Q));
  bool FoundSo = false, FoundReason = false;
  for (const auto &Ent : fs::directory_iterator(Q)) {
    std::string Name = Ent.path().filename().string();
    if (Name.find("ddr-" + K + ".so") == 0) {
      if (Name.size() > 7 && Name.rfind(".reason") == Name.size() - 7)
        FoundReason = true;
      else
        FoundSo = true;
    }
  }
  EXPECT_TRUE(FoundSo);
  EXPECT_TRUE(FoundReason);
}

TEST(CacheEvict, LruUnderAByteCapProtectsTheNewestKey) {
  TempCacheDir T;
  // Three 1000-byte artifacts recorded oldest-to-newest. Tell LRU apart
  // with explicit touches rather than timing assumptions.
  std::string K1 = fakeKey('6'), K2 = fakeKey('7'), K3 = fakeKey('8');
  for (const std::string &K : {K1, K2, K3}) {
    T.plantSo(K, std::string(1000, 'x'));
    recordCacheArtifact(T.str(), K, "prog");
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  touchCacheArtifact(T.str(), K1); // K1 is now the warmest; K2 the coldest

  uint64_t Before = cacheEvictionCount();
  // Cap at 2500 bytes: one eviction needed, and K3 (just installed) is
  // protected — so the coldest unprotected artifact, K2, must go.
  uint64_t Evicted = enforceCacheCap(T.str(), 2500, /*ProtectKey=*/K3);
  EXPECT_EQ(Evicted, 1u);
  EXPECT_EQ(cacheEvictionCount(), Before + 1);
  EXPECT_TRUE(fs::exists(T.soPath(K1)));
  EXPECT_FALSE(fs::exists(T.soPath(K2)));
  EXPECT_TRUE(fs::exists(T.soPath(K3)));

  auto Entries = readCacheIndexEntries(T.str());
  EXPECT_NE(findEntry(Entries, K1), nullptr);
  EXPECT_EQ(findEntry(Entries, K2), nullptr); // row dropped with the file
  EXPECT_NE(findEntry(Entries, K3), nullptr);
}

TEST(CacheEvict, NoCapOrUnderCapEvictsNothing) {
  TempCacheDir T;
  std::string K = fakeKey('9');
  T.plantSo(K, std::string(100, 'x'));
  recordCacheArtifact(T.str(), K, "prog");
  EXPECT_EQ(enforceCacheCap(T.str(), 1000000), 0u);
  EXPECT_TRUE(fs::exists(T.soPath(K)));
}

TEST(CacheEvict, OrphanArtifactsWithoutIndexRowsAreStillEvictable) {
  TempCacheDir T;
  // An artifact with no index row (a v0-era file, or a crash between the
  // .so rename and the index rewrite) must still count toward the cap and
  // be evictable by file mtime.
  std::string Orphan = fakeKey('a');
  T.plantSo(Orphan, std::string(2000, 'x'));
  EXPECT_EQ(enforceCacheCap(T.str(), 500), 1u);
  EXPECT_FALSE(fs::exists(T.soPath(Orphan)));
}

} // namespace
