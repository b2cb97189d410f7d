//===--- observe/replay.h - replay bundle format and divergence diagnosis ----===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flight-recorder bundle (docs/REPLAY.md): a self-contained directory
/// (or ustar archive of one) capturing everything needed to deterministically
/// re-execute a run and compare it superstep-by-superstep against what was
/// recorded:
///
///   manifest.json         schema version, program identity, CompileOptions,
///                         run configuration, policy, ABI/compiler/git
///                         identity, input bindings, recorded outcome,
///                         per-slot source-map names
///   program.diderot       the DSL source, verbatim
///   digests.tsv           one 128-bit canonical state digest per superstep
///                         (entry 0 = post-initialize; observe/digest.h)
///   states.tsv            optional per-strand canonical state behind every
///                         digest entry (status byte + slot bit patterns)
///   input-<hash128>.nrrd  content-addressed copies of file-based inputs
///
/// This layer owns the FORMAT and the DIAGNOSIS (first divergent superstep,
/// first divergent strand/slot with source-map names, strand pretty-
/// printing). It deliberately depends only on diderot_support: the
/// orchestration that recompiles and re-runs a bundle lives up the stack in
/// driver/record.h, and the daemon's failure capture in serve/daemon.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_OBSERVE_REPLAY_H
#define DIDEROT_OBSERVE_REPLAY_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "observe/digest.h"
#include "support/result.h"

namespace diderot::observe {

/// Bundle schema version; bump on any manifest or file-layout change.
constexpr int ReplaySchemaVersion = 1;

/// One recorded input binding. File-based NRRD inputs are copied into the
/// bundle content-addressed and Text rewritten to the bundle-relative name;
/// everything else (scalars, tensors, synth: specs) replays from Text
/// verbatim.
struct RecordedInput {
  std::string Name;
  std::string Text;
  bool IsFile = false; ///< Text names a file inside the bundle
};

/// Everything a bundle captures, in memory. Field groups mirror the layers
/// they came from: compile options, run configuration, run policy, recorded
/// results.
struct ReplayBundle {
  int Schema = ReplaySchemaVersion;
  std::string Program; ///< program name (diagnostics, artifact naming)
  std::string Source;  ///< DSL source text (program.diderot)

  // Identity of the recording toolchain (informational: replays under a
  // different compiler may legitimately diverge, and the report says so).
  int AbiVersion = 0;
  std::string CompilerId;
  std::string GitSha;

  // CompileOptions subset that changes generated code.
  bool EngineNative = true;
  bool DoublePrecision = false;
  bool EnableContract = true;
  bool EnableValueNumbering = true;
  std::string ExtraCxxFlags;

  // RunConfig.
  int MaxSupersteps = 1;
  int NumWorkers = 0;
  int BlockSize = 0;

  // RunPolicy. The fault-injection plan is part of the recording: an
  // injected fault is input, not noise — replaying a chaos-test job must
  // re-inject the same faults to reproduce the same outcome.
  int64_t DeadlineNs = 0;
  int64_t MaxFaults = -1;
  int WatchdogSteps = 0;
  bool StrictFp = false;
  struct PlannedFaultRec {
    uint64_t Strand = 0;
    int Step = 0;
    int Kind = 0; ///< observe::FaultKind as int
  };
  std::vector<PlannedFaultRec> Plan;

  // Inputs, in binding order.
  std::vector<RecordedInput> Inputs;

  // Source-map names, one per canonical state slot (params first, then
  // state variables, tensor components suffixed "[k]").
  std::vector<std::string> SlotNames;

  // Recorded results.
  std::string Outcome; ///< runOutcomeName of the recorded run
  int Steps = 0;
  int64_t NumStrands = 0;
  std::string OutputDigest; ///< hex hash over every output's values
  DigestLog Digests;        ///< per-superstep digests (+states when logged)
};

/// File names inside a bundle.
inline const char *bundleManifestFile() { return "manifest.json"; }
inline const char *bundleSourceFile() { return "program.diderot"; }
inline const char *bundleDigestsFile() { return "digests.tsv"; }
inline const char *bundleStatesFile() { return "states.tsv"; }

/// Content-addressed name for an input file with FNV-128 hex \p Hash.
inline std::string bundleInputFile(const std::string &Hash) {
  return "input-" + Hash + ".nrrd";
}

/// Serialize the manifest (everything except Source and Digests, which have
/// their own files) as JSON.
std::string manifestToJson(const ReplayBundle &B);

/// Parse a manifest produced by manifestToJson. Unknown keys are ignored
/// (forward compatibility); missing keys keep their defaults.
Status manifestFromJson(const std::string &Json, ReplayBundle &B);

/// Serialize / parse the digest stream: one "<index>\t<32-hex>" line per
/// entry.
std::string digestsToTsv(const DigestLog &L);
Status digestsFromTsv(const std::string &Text, DigestLog &L);

/// Serialize / parse the state log: a "# entries strands slots" header then
/// one "<entry>\t<strand>\t<status>\t<slot-bits-hex>..." line per strand
/// per entry.
std::string statesToTsv(const DigestLog &L);
Status statesFromTsv(const std::string &Text, DigestLog &L);

/// Write \p B into directory \p Dir (created if needed). \p InputFiles maps
/// bundle-relative names (bundleInputFile form) to raw NRRD bytes. Every
/// file is published atomically (support/atomic_file.h) so a crashed writer
/// never leaves a torn bundle.
Status writeBundle(const std::string &Dir, const ReplayBundle &B,
                   const std::map<std::string, std::string> &InputFiles = {});

/// Read a bundle from directory \p Dir.
Result<ReplayBundle> readBundle(const std::string &Dir);

/// Where replayed execution first differs from the recording.
struct Divergence {
  bool Diverged = false;
  /// First divergent digest entry: 0 = post-initialize state (inputs or
  /// strand creation differ), k >= 1 = after superstep k. -1 when the
  /// streams match but their lengths differ (reported via Summary).
  int Superstep = -1;
  int64_t Strand = -1;    ///< first divergent strand (state logs only)
  int Slot = -1;          ///< first divergent slot in that strand
  std::string SlotName;   ///< source-map name of that slot
  bool StatusDiffers = false;
  uint8_t WantStatus = 0, GotStatus = 0;
  uint64_t WantBits = 0, GotBits = 0; ///< canonical slot bit patterns
  std::string Summary;    ///< one-paragraph human-readable report
};

/// Compare the recorded stream in \p B against \p Replayed. With state
/// logs on both sides, pinpoints the first divergent strand and slot and
/// names the slot from B.SlotNames; with digests only, reports the first
/// divergent superstep.
Divergence diagnoseDivergence(const ReplayBundle &B, const DigestLog &Replayed);

/// Pretty-print recorded strand \p Strand at digest entry \p Entry using
/// the bundle's source-map slot names — the same rendering `diderotc
/// --dump-strand N --at-superstep K` shows. Errors when the bundle has no
/// state log or the indices are out of range.
Result<std::string> dumpStrand(const ReplayBundle &B, int64_t Strand,
                               int Entry);

} // namespace diderot::observe

#endif // DIDEROT_OBSERVE_REPLAY_H
