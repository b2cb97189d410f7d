//===--- driver/record.h - flight recorder and bundle replay -----------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The orchestration half of record/replay (docs/REPLAY.md). The FORMAT —
/// manifest, digest stream, divergence diagnosis — lives down the stack in
/// observe/replay.h, which only sees diderot_support; this layer is the one
/// that can actually compile and run programs, so it owns:
///
///  * FlightRecorder — rides along one compile+run (diderotc --record, the
///    daemon's --record-on-failure) collecting everything a bundle needs:
///    source, compile options, input bindings (file-based NRRDs copied in
///    content-addressed), run configuration, policy (including the fault
///    injection plan), the per-superstep digest stream, and the recorded
///    outcome. finish() publishes the bundle atomically.
///
///  * replayBundle — the inverse: re-compile the bundled source under the
///    bundled options, re-bind the bundled inputs, re-run under the bundled
///    configuration with digests armed, and compare superstep-by-superstep.
///    On mismatch the report pinpoints the first divergent superstep — and,
///    when the bundle carries a state log, the first divergent strand and
///    slot by source-map name.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_DRIVER_RECORD_H
#define DIDEROT_DRIVER_RECORD_H

#include <map>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "observe/replay.h"
#include "runtime/host.h"
#include "support/result.h"

namespace diderot {

/// Source-map names for every canonical strand state slot, in digest slot
/// order: strand parameters first ("param<i>", components "[k]"-suffixed),
/// then state variables under their declared names. Build from the MID
/// module — scalarization never reorders Module::State, so the mid-level
/// names map 1:1 onto the flattened slots both engines hash.
std::vector<std::string> strandSlotNames(const ir::Module &M);

/// Digest over every output of a finished instance (getOutput of each
/// output in declaration order, values in storage order), as 32 hex chars.
std::string outputDigestHex(rt::ProgramInstance &I);

/// Best-effort commit hash of the enclosing git checkout (walks up from the
/// current directory reading .git/HEAD). Empty when not in a checkout —
/// informational manifest identity only, never load-bearing.
std::string currentGitSha();

/// Collects one run into a replay bundle. Usage, in run order:
///
///   FlightRecorder R;
///   R.begin(dir, name, source, opts, prog.midModule());
///   R.addInput(name, text);            // per binding, in binding order
///   R.armConfig(runConfig);            // before run(); turns digests on
///   ...run...
///   R.finish(instance, stats);         // writes the bundle atomically
class FlightRecorder {
public:
  /// Start recording into directory \p Dir (created by finish()).
  void begin(std::string Dir, const std::string &ProgramName,
             std::string Source, const CompileOptions &Opts,
             const ir::Module &Mid);

  /// Record one textual input binding. A value naming a readable file
  /// (a .nrrd path) is copied into the bundle content-addressed and
  /// replays from the bundled copy; every other text (scalars, tensors,
  /// synth: specs) replays verbatim.
  Status addInput(const std::string &Name, const std::string &Value);

  /// Record the run configuration and policy (including the fault plan)
  /// and arm digest + state-log capture on \p C.
  void armConfig(rt::RunConfig &C);

  /// After the run: capture the digest stream, outcome, and final-output
  /// digest, then write the bundle. The manifest is written last, so a
  /// visible manifest means a complete bundle.
  Status finish(rt::ProgramInstance &I, const rt::RunStats &Stats);

  /// Write the bundle for a job that never ran — the daemon's
  /// compile-trapped jobs (instantiate failed: the host compiler crashed,
  /// timed out, or miscompiled) and run() hard errors. Source, options,
  /// inputs, and configuration are all recorded; the outcome is
  /// \p OutcomeLabel and there is no digest stream, so replaying the
  /// bundle reproduces the trap itself.
  Status finishTrapped(const std::string &OutcomeLabel);

  bool active() const { return !Dir.empty(); }
  const std::string &dir() const { return Dir; }
  const observe::ReplayBundle &bundle() const { return B; }

private:
  std::string Dir;
  observe::ReplayBundle B;
  std::map<std::string, std::string> Files; ///< bundle name -> raw bytes
};

/// What replaying a bundle produced, alongside what was recorded.
struct ReplayReport {
  observe::ReplayBundle Bundle; ///< the recording (digest stream included)
  std::string ReplayedOutcome;
  int ReplayedSteps = 0;
  std::string ReplayedOutputDigest;
  /// False when the bundle carries no per-step digests (e.g. one written
  /// for a trapped run) — then only outcome and final-output digest were
  /// checked.
  bool DigestsCompared = false;
  observe::Divergence Div; ///< meaningful when DigestsCompared
  bool OutcomeMatches = false;
  bool OutputMatches = false;
  bool Match = false;      ///< everything checked agreed
  std::string Text;        ///< printable multi-line report
};

/// Load a bundle from \p Path: a bundle directory, or a ustar archive of
/// one (the daemon's GET /jobs/<id>/bundle form), which is materialized
/// into a scratch directory. \p BundleDir receives the directory the
/// bundle was read from (needed to resolve bundled input files).
Result<observe::ReplayBundle> loadBundle(const std::string &Path,
                                         std::string *BundleDir = nullptr);

/// Re-compile, re-bind, and re-run the bundle at \p Path under its recorded
/// configuration, then compare against the recording. \p WorkDir is the
/// compile scratch directory (empty = system temp). A recorded "deadline"
/// outcome replays step-capped at the recorded superstep count instead of
/// racing a wall clock — determinism is a property of state evolution, not
/// of the replay machine's speed — and counts as matching when the replay
/// reaches the same superstep with the same digests.
Result<ReplayReport> replayBundle(const std::string &Path,
                                  const std::string &WorkDir = "");

} // namespace diderot

#endif // DIDEROT_DRIVER_RECORD_H
