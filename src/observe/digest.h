//===--- observe/digest.h - canonical superstep state digests ----------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical form both engines hash when a run is recorded for replay
/// (docs/REPLAY.md). Per superstep, a 128-bit FNV-1a digest is taken over
/// every strand in index order: one status byte, then each state slot as
/// the bit pattern of its value converted to double (NaNs collapsed to one
/// quiet-NaN pattern so an interp/native pair that both produce NaN — with
/// possibly different payload bits — still digest equal). Ints and bools
/// are cast to double before hashing, matching the native engine's scalar
/// slot layout, so the interpreter's RtVal flattening and the generated
/// code's strandSlotValue() produce bit-identical streams.
///
/// Entry 0 is the post-initialize() state (divergence there means inputs or
/// strand creation differ); entry k (k >= 1) is the state after superstep
/// k. A separate final-output digest covers getOutput() of every output.
///
/// Deliberately STL-only and header-only: generated native translation
/// units include it through runtime/native_prelude.h (same constraint as
/// observe/recorder.h). The bundle reader/writer lives host-side in
/// observe/replay.h.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_OBSERVE_DIGEST_H
#define DIDEROT_OBSERVE_DIGEST_H

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/hash.h"

namespace diderot::observe {

/// The bit pattern hashed for one double value. All NaNs collapse to the
/// standard quiet NaN; -0.0 and +0.0 keep distinct patterns (both engines
/// compute them the same way, and the distinction is real signal).
inline uint64_t canonicalBits(double V) {
  if (std::isnan(V))
    return 0x7FF8000000000000ULL;
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

/// Streaming hasher for one superstep's canonical form. Per strand, in
/// strand-index order: status(<byte>) once, then slot(<value>) for every
/// state slot in slot order. Both engines drive this class so the byte
/// stream — and therefore the digest — is identical by construction.
class StrandStateHasher {
public:
  void status(uint8_t S) { H.update(&S, 1); }
  void slot(double V) {
    uint64_t B = canonicalBits(V);
    unsigned char Bytes[8];
    for (int I = 0; I < 8; ++I, B >>= 8)
      Bytes[I] = static_cast<unsigned char>(B & 0xFF);
    H.update(Bytes, 8);
  }
  support::Hash128 digest() const { return H.digest(); }

private:
  support::Fnv128 H;
};

/// Everything a digest-armed run captures. Entries[0] = post-init,
/// Entries[k] = after superstep k. When the state log is armed too
/// (HasStates), Status and Slots hold the full canonicalized per-strand
/// state for every entry — Status[e * NumStrands + s] and
/// Slots[(e * NumStrands + s) * NumSlots + k] — powering first-divergent-
/// strand diagnosis and --dump-strand.
struct DigestLog {
  int64_t NumStrands = 0;
  int64_t NumSlots = 0;
  std::vector<support::Hash128> Entries;
  bool HasStates = false;
  std::vector<uint8_t> Status; ///< per-entry per-strand status bytes
  std::vector<uint64_t> Slots; ///< per-entry per-strand canonical slot bits

  void clear() {
    NumStrands = NumSlots = 0;
    Entries.clear();
    HasStates = false;
    Status.clear();
    Slots.clear();
  }
  size_t entries() const { return Entries.size(); }
};

//===----------------------------------------------------------------------===//
// Flat wire format (DDR_READ_DIGEST / DDR_READ_STATE)
//===----------------------------------------------------------------------===//
//
// Digest stream: [0] entry count, then (Hi, Lo) per entry.
// State log: [0] entry count [1] strands [2] slots, then per entry, per
// strand: 1 status word + NumSlots canonical-bit words.

inline std::vector<uint64_t> flattenDigests(const DigestLog &L) {
  std::vector<uint64_t> Out;
  Out.reserve(1 + L.Entries.size() * 2);
  Out.push_back(L.Entries.size());
  for (const support::Hash128 &E : L.Entries) {
    Out.push_back(E.Hi);
    Out.push_back(E.Lo);
  }
  return Out;
}

/// Inverse of flattenDigests; fills only the Entries. Returns false when
/// \p N is inconsistent with the header.
inline bool unflattenDigests(const uint64_t *Data, size_t N, DigestLog &L) {
  if (N < 1)
    return false;
  size_t Count = static_cast<size_t>(Data[0]);
  if (N < 1 + Count * 2)
    return false;
  L.Entries.clear();
  L.Entries.reserve(Count);
  for (size_t I = 0; I < Count; ++I)
    L.Entries.push_back({Data[1 + I * 2], Data[2 + I * 2]});
  return true;
}

inline std::vector<uint64_t> flattenStates(const DigestLog &L) {
  std::vector<uint64_t> Out;
  size_t Entries = L.Entries.size();
  size_t Strands = static_cast<size_t>(L.NumStrands);
  size_t Slots = static_cast<size_t>(L.NumSlots);
  Out.reserve(3 + Entries * Strands * (1 + Slots));
  Out.push_back(Entries);
  Out.push_back(Strands);
  Out.push_back(Slots);
  for (size_t E = 0; E < Entries; ++E)
    for (size_t S = 0; S < Strands; ++S) {
      Out.push_back(L.Status[E * Strands + S]);
      for (size_t K = 0; K < Slots; ++K)
        Out.push_back(L.Slots[(E * Strands + S) * Slots + K]);
    }
  return Out;
}

/// Inverse of flattenStates; fills NumStrands/NumSlots/Status/Slots and
/// sets HasStates. The entry count must match L.Entries when already
/// populated (digest stream read first). Returns false on inconsistency.
inline bool unflattenStates(const uint64_t *Data, size_t N, DigestLog &L) {
  if (N < 3)
    return false;
  size_t Entries = static_cast<size_t>(Data[0]);
  size_t Strands = static_cast<size_t>(Data[1]);
  size_t Slots = static_cast<size_t>(Data[2]);
  size_t Per = Strands * (1 + Slots); // words per entry
  if (Strands != 0 && Per / Strands != 1 + Slots)
    return false; // multiplication overflowed
  if (Per != 0 && Entries > (N - 3) / Per)
    return false;
  if (N < 3 + Entries * Per)
    return false;
  if (!L.Entries.empty() && L.Entries.size() != Entries)
    return false;
  L.NumStrands = static_cast<int64_t>(Strands);
  L.NumSlots = static_cast<int64_t>(Slots);
  L.Status.assign(Entries * Strands, 0);
  L.Slots.assign(Entries * Strands * Slots, 0);
  const uint64_t *P = Data + 3;
  for (size_t E = 0; E < Entries; ++E)
    for (size_t S = 0; S < Strands; ++S) {
      L.Status[E * Strands + S] = static_cast<uint8_t>(*P++);
      for (size_t K = 0; K < Slots; ++K)
        L.Slots[(E * Strands + S) * Slots + K] = *P++;
    }
  L.HasStates = true;
  return true;
}

} // namespace diderot::observe

#endif // DIDEROT_OBSERVE_DIGEST_H
