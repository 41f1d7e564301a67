//===- bench.h - shared declarations of the repository benchmark -*- C++ -*-===//
//
// Part of the lambda-ssa project, reproducing "Lambda the Ultimate SSA"
// (CGO 2022). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark compiles MiniLean through lower::compileProgram and runs
/// the bytecode on the VM, one process and one thread per workload.
/// lzbench.cpp owns the command line and the result line, harness.cpp the
/// workloads, set-up and untraced timed rounds, layers.cpp the traced run
/// that attributes time and counts to the compiler's modules, trace.cpp
/// the in-memory span recorder.
///
//===----------------------------------------------------------------------===//

#ifndef LZBENCH_BENCH_H
#define LZBENCH_BENCH_H

#include "lower/Pipeline.h"
#include "vm/Bytecode.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lzbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// What a correct run of a program returns and prints.
struct Reference {
  std::string Display;
  std::string Output;
  bool operator==(const Reference &) const = default;
};

/// Pinned references keyed by "<program>@<size>".
using ReferenceTable = std::map<std::string, Reference>;
bool readReferences(const std::string &Path, ReferenceTable &Out,
                    std::string &Error);
bool writeReferences(const std::string &Path, const ReferenceTable &Table);
/// Recomputes every pinned reference with the λpure oracle (on a thread
/// with a large stack) and compares; prints each difference to stderr.
/// With \p Rewrite the file is regenerated instead. Returns true if the
/// pinned table is complete and matches (or was written).
bool checkReferences(const std::string &Path, bool Rewrite);

/// One input program of a workload.
struct BenchInput {
  std::string Name;   ///< suite name, or "gen.<n>" for generated programs
  std::string Source; ///< MiniLean source at the size the workload uses
  long Size = -1;     ///< template size; -1 for fixed-source programs
  bool Generated = false;
  bool Timed = false; ///< part of the run rounds
  Reference Expect;   ///< pinned (suite) or oracle (generated) answer
  /// VM runs per timed sample, so that a sample of a tiny program is not
  /// dominated by the clock; derived from the step count, not from time.
  unsigned Reps = 1;
};

/// A (program, variant) pair: compiled bytecode plus the values every
/// later compile and run must reproduce exactly.
struct Pair {
  unsigned Input = 0;
  lz::lower::PipelineVariant Variant = lz::lower::PipelineVariant::Full;
  lz::vm::Program Prog;     ///< bytecode from set-up (run pairs only)
  uint64_t Instrs = 0;      ///< emitted instruction count
  uint64_t Steps = 0;       ///< VM steps per run (run pairs only)
};

/// The static description of a workload plus the state set-up builds.
struct Workload {
  std::string Name;
  uint64_t Seed = 0;
  std::vector<lz::lower::PipelineVariant> CompileVariants;
  std::vector<lz::lower::PipelineVariant> RunVariants;
  /// Generated programs compiled per round (compile_corpus); rounds walk
  /// the seed's pool slice by slice.
  unsigned GeneratedPerRound = 0;

  std::vector<BenchInput> Inputs;
  std::vector<Pair> CompilePairs; ///< fixed (non-generated) inputs
  std::vector<Pair> PoolPairs;    ///< generated inputs, slice-major
  std::vector<Pair> RunPairs;
  /// Sum of emitted instructions under `full` over the workload's fixed
  /// inputs. The generated pool is left out: its code size moves several
  /// percent with the seed, so the sum would not repeat across seeds.
  uint64_t FullInstrs = 0;
};

/// Failures counted against attempts; a failure is a wrong result, wrong
/// stdout, a leak, a trap, a compile error, or a count that changed.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  void pass() { ++Attempted; }
  void fail(const std::string &What);
  void check(bool OK, const std::string &What) {
    if (OK)
      pass();
    else
      fail(What);
  }
};

/// Fills \p W with the named workload's fixed inputs and variants for
/// \p Seed. Returns false on an unknown name.
bool makeWorkload(const std::string &Name, uint64_t Seed,
                  const ReferenceTable &Refs, Workload &W, Tally &T);
/// Set-up: oracle checks, the generated pool, compiles, the reference
/// check at run size, and warm-up.
void setUp(Workload &W, const ReferenceTable &Refs, Tally &T);

/// One compile as the production entry points do it: fresh Context,
/// parse, compileProgram, teardown. Returns the emitted instruction count
/// (0 on failure).
uint64_t compileOnce(const std::string &Source,
                     const lz::lower::PipelineOptions &Opts,
                     lz::vm::Program *Out = nullptr);

/// Result of one VM run of a pair.
struct RunOutcome {
  double Seconds = 0; ///< run plus release of the result
  uint64_t Steps = 0;
  bool OK = false;
};
RunOutcome runOnce(const Pair &P, const BenchInput &In, Tally &T);
/// One timed sample: In.Reps runs, as seconds per run.
double runSample(const Pair &P, const BenchInput &In, Tally &T);

/// Moves the benchmark's one thread to the next allowed CPU before each
/// round. On a shared VM each vCPU is slowed by its own neighbours for
/// seconds at a time; visiting all of them lets some rounds of every run
/// land on a quiet one. Restores the original affinity on destruction.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;
  void enter(uint64_t Round);

private:
  std::vector<int> Cpus;
  std::vector<unsigned char> Original; ///< the cpu_set_t at construction
};

/// The compile pairs of round \p Round (fixed inputs plus one pool slice).
std::vector<const Pair *> compileRound(const Workload &W, uint64_t Round);
/// Rotates \p N items by the seed and the round number.
std::vector<size_t> roundOrder(size_t N, uint64_t Seed, uint64_t Round);

uint64_t instrCount(const lz::vm::Program &P);
bool sameBytecode(const lz::vm::Program &A, const lz::vm::Program &B);

/// Runs a fixed kernel that uses nothing from src/ and returns its time in
/// seconds: the box's current speed, to which timed blocks are related.
double calibrate();

double median(std::vector<double> Xs);
/// Nearest-rank percentile (\p Q in (0, 1)).
double percentile(std::vector<double> Xs, double Q);

/// Metric name -> (value, unit), in output order.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Rows;
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Rows.push_back({Name, {Value, Unit}});
  }
};

/// The untraced run: set-up several times, then timed rounds for
/// \p Seconds; fills the end-to-end metrics.
void runEndToEnd(Workload &W, const ReferenceTable &Refs, double Seconds,
                 Metrics &M, Tally &T);
/// The traced run: per-layer times, counts and spans; writes the trace
/// and self-time table under \p OutDir.
void runTraced(Workload &W, double Seconds, const std::string &OutDir,
               const std::string &Provenance, Metrics &M, Tally &T);

/// Names of the 11 timed suite programs, in output order.
const std::vector<std::string> &runProgramNames();

} // namespace lzbench

#endif // LZBENCH_BENCH_H
