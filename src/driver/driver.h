//===--- driver/driver.h - the public compiler API ---------------------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library entry point a host application uses:
///
///   auto C = diderot::compileString(source, opts);      // parse .. LowIR
///   auto I = C->instantiate();                          // engine instance
///   I->setInputImage("img", myVolume);
///   I->initialize();
///   auto stats = I->run(1000, 8);   // Result<rt::RunStats>
///   I->getOutput("gray", data);
///
/// Two engines are provided. Engine::Native mirrors the paper's pipeline:
/// the compiler emits C++ (the paper emitted C with vector extensions),
/// hands it to the host system's compiler, and loads the resulting shared
/// object. Engine::Interp evaluates MidIR directly — the reference
/// semantics, available without a host compiler.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_DRIVER_DRIVER_H
#define DIDEROT_DRIVER_DRIVER_H

#include <memory>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "runtime/host.h"
#include "support/result.h"

namespace diderot {

/// Wall time and IR size delta of one compiler pass (`--time-passes`).
/// Always collected by compileString — each pass runs exactly once per
/// compile, so the overhead is a handful of clock reads.
struct PassTiming {
  std::string Pass;  ///< pass name, e.g. "contract(mid)"
  uint64_t Ns = 0;   ///< wall time in nanoseconds
  int OpsBefore = 0; ///< module instruction count before the pass
  int OpsAfter = 0;  ///< module instruction count after the pass
};

enum class Engine {
  Interp, ///< MidIR interpreter (double precision, no host compiler needed)
  Native, ///< emit C++, compile with the host compiler, dlopen
};

struct CompileOptions {
  Engine Eng = Engine::Native;
  /// Native engine: represent `real` as double instead of float ("the user
  /// must decide if reals are represented as single or double-precision
  /// floats", Section 6.3).
  bool DoublePrecision = false;
  /// Optimization toggles (for the ablation benchmarks).
  bool EnableContract = true;
  bool EnableValueNumbering = true;
  /// Native engine: keep the generated .cpp next to the .so for inspection.
  bool KeepCpp = false;
  /// Scratch directory for generated artifacts; empty = std::filesystem's
  /// temp directory.
  std::string WorkDir;
  /// Extra flags for the host C++ compiler (appended after the defaults).
  std::string ExtraCxxFlags;
  /// Native engine, host-compile supervision (codegen/native_load.cpp):
  /// wall-clock budget for one host-compiler run in milliseconds (0 = wait
  /// forever) and the retry budget for signal deaths, the transient class —
  /// nonzero exits and timeouts never retry. Deliberately NOT part of the
  /// cache key: they change when a compile is abandoned, never what it
  /// produces.
  int64_t HostCompileTimeoutMs = 120000;
  int HostCompileRetries = 1;
  int64_t HostCompileBackoffMs = 100;
  /// Cap on the cache directory's total ddr-*.so bytes; least-recently-used
  /// artifacts are evicted after each install. 0 = unbounded.
  uint64_t CacheMaxBytes = 0;
};

/// A compiled program, ready to instantiate. Cheap to instantiate many
/// times: the native shared object is emitted, built or found, and loaded
/// on the first successful instantiate(), and each later one only creates
/// the instance.
class CompiledProgram {
public:
  CompiledProgram(ir::Module Mid, ir::Module Low, CompileOptions Opts,
                  std::vector<PassTiming> Timings = {});
  ~CompiledProgram();
  CompiledProgram(CompiledProgram &&) noexcept;
  CompiledProgram &operator=(CompiledProgram &&) noexcept;

  /// The module after optimization at MidIR (pre-scalarization), for
  /// inspection and the interpreter engine.
  const ir::Module &midModule() const;
  /// The final LowIR module the code generator consumes.
  const ir::Module &lowModule() const;

  /// Generate the native C++ translation unit (available regardless of the
  /// selected engine; used by tests and `diderotc -emit-cpp`).
  std::string emitCpp() const;

  /// Create a fresh instance (own inputs, strands, outputs). Const and
  /// thread-safe: the serve daemon holds one shared_ptr<const
  /// CompiledProgram> per cached program and instantiates from several job
  /// workers at once. Concurrent first calls load the .so once; a failed
  /// load is reported to its caller and retried by the next call.
  Result<std::unique_ptr<rt::ProgramInstance>> instantiate() const;

  /// Per-pass wall time and instruction-count deltas for this compile.
  const std::vector<PassTiming> &passTimings() const;

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// Front door: compile Diderot source text. \p Name is used in diagnostics
/// and generated-artifact file names.
Result<CompiledProgram> compileString(const std::string &Source,
                                      const CompileOptions &Opts = {},
                                      const std::string &Name = "program");

/// Compile a .diderot file.
Result<CompiledProgram> compileFile(const std::string &Path,
                                    const CompileOptions &Opts = {});

} // namespace diderot

#endif // DIDEROT_DRIVER_DRIVER_H
