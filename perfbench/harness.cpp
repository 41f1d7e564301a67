//===- harness.cpp - workloads, set-up and untraced timed rounds ----------===//
//
// Part of the lambda-ssa project, reproducing "Lambda the Ultimate SSA"
// (CGO 2022). MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "dialect/Dialects.h"
#include "driver/Driver.h"
#include "lambda/MiniLean.h"
#include "programs/Generator.h"
#include "programs/Programs.h"
#include "support/OStream.h"
#include "vm/VM.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>

using namespace lz;
using namespace lzbench;
using lower::PipelineVariant;

namespace {

/// Sizes the run workloads instantiate the suite at. On a quiet x86 core a
/// run takes 5-10 ms (compose_chains under leanc about 25 ms): long
/// against the clock, and short enough that a round stays near 0.1 s, so
/// a 25 s run holds the 110 rounds the 90th percentile needs even
/// when the box runs 1.6x slower. All but deriv (0.7 ms at
/// BenchSize) and compose_chains (3 ms under full) are below BenchSize.
const std::pair<const char *, long> RunSizes[] = {
    {"binarytrees", 10},        {"binarytrees-int", 10}, {"const_fold", 10},
    {"deriv", 20},              {"filter", 20000},       {"qsort", 6000},
    {"rbmap_checkpoint", 2500}, {"unionfind", 2000},     {"cps_pipeline", 30000},
    {"church_arith", 10000},    {"compose_chains", 120000},
};

long runSize(const std::string &Name) {
  for (const auto &[N, S] : RunSizes)
    if (Name == N)
      return S;
  return -1;
}

/// Generated programs for compile_corpus: larger than lz-fuzz's defaults
/// (2-5 functions), and drawn only where the λpure node count lies in a
/// band, so that compile cost varies less from seed to seed.
programs::GeneratorOptions corpusGeneratorOptions() {
  programs::GeneratorOptions O;
  O.MinFunctions = 4;
  O.MaxFunctions = 8;
  O.BodyDepth = 3;
  O.MainDepth = 4;
  return O;
}
constexpr unsigned PoolSize = 64;
constexpr unsigned PoolSlice = 8; // K: generated programs per compile round
constexpr size_t MinNodes = 200, MaxNodes = 280;
constexpr unsigned MaxCandidates = PoolSize * 50;
/// The fuel cap lz-fuzz uses for generated programs.
constexpr uint64_t GeneratedFuel = 500'000'000;
/// A timed sample of a run pair executes at least this many VM steps, in
/// at most MaxReps runs.
constexpr uint64_t MinSampleSteps = 50'000;
constexpr uint64_t MaxReps = 1000;
constexpr unsigned SetupRepeats = 5;
/// The calibration kernel's time on the reference core that reported times
/// are scaled to: about its median on a quiet core of the 4-vCPU Xeon VM
/// this benchmark was written on. Fixed, so that runs compare.
constexpr double CalibRefSeconds = 0.004;
/// With 110 samples, 10 lie beyond the 90th percentile.
constexpr size_t MinRounds = 110;

const PipelineVariant AllVariants[] = {
    PipelineVariant::Leanc, PipelineVariant::Full, PipelineVariant::SimpOnly,
    PipelineVariant::RgnOnly, PipelineVariant::NoOpt};

std::string refKey(const std::string &Name, long Size) {
  return Name + "@" + (Size < 0 ? std::string("fixed") : std::to_string(Size));
}

size_t countNodes(const lambda::FnBody *B) {
  if (!B)
    return 0;
  size_t N = 1 + countNodes(B->JBody.get()) + countNodes(B->Next.get()) +
             countNodes(B->Default.get());
  for (const lambda::Alt &A : B->Alts)
    N += countNodes(A.Body.get());
  return N;
}

bool parse(const std::string &Source, lambda::Program &P) {
  std::string Error;
  return succeeded(lambda::parseMiniLean(Source, P, Error));
}

/// Every (suite or feature) program with its TestSize source, as
/// compile_corpus and the pinned TestSize references see them.
struct FixedProgram {
  std::string Name;
  long TestSize;
  std::string TestSource;
  const programs::BenchProgram *Suite; ///< null for feature programs
};

std::vector<FixedProgram> builtinPrograms() {
  std::vector<FixedProgram> Out;
  for (const auto *Suite :
       {&programs::getBenchmarkSuite(), &programs::getHigherOrderSuite()})
    for (const programs::BenchProgram &B : *Suite)
      Out.push_back({B.Name, B.TestSize, programs::instantiate(B, B.TestSize),
                     &B});
  for (const programs::FeatureProgram &F : programs::getFeatureCorpus())
    Out.push_back({F.Name, -1, F.Source, nullptr});
  return Out;
}

/// Runs \p Fn on a thread with a 1 GiB stack: the λpure oracle overflows
/// the default 8 MiB stack at run sizes.
void onLargeStack(std::function<void()> Fn) {
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, size_t(1) << 30);
  pthread_t Thread;
  auto Trampoline = [](void *Arg) -> void * {
    (*static_cast<std::function<void()> *>(Arg))();
    return nullptr;
  };
  if (pthread_create(&Thread, &Attr, Trampoline, &Fn) != 0) {
    std::fprintf(stderr, "lzbench: cannot start the oracle thread\n");
    std::exit(2);
  }
  pthread_join(Thread, nullptr);
  pthread_attr_destroy(&Attr);
}

std::string escapeField(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\t')
      Out += "\\t";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

std::string unescapeField(const std::string &S) {
  std::string Out;
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I] != '\\' || I + 1 == S.size()) {
      Out += S[I];
      continue;
    }
    char C = S[++I];
    Out += C == 't' ? '\t' : C == 'n' ? '\n' : C;
  }
  return Out;
}

/// Checks \p Source compiled under \p V against the oracle's answer.
void checkAgainstOracle(const std::string &Name, const std::string &Source,
                        const Reference &Oracle, PipelineVariant V,
                        uint64_t Fuel, Tally &T) {
  lambda::Program P;
  if (!parse(Source, P)) {
    T.check(false, Name + ": parse error");
    return;
  }
  driver::VMOptions VO;
  VO.FuelLimit = Fuel;
  driver::RunResult R = driver::runProgram(P, V, "main", VO);
  std::string Where = Name + " [" + lower::pipelineVariantName(V) + "]";
  T.check(R.OK, Where + ": " + R.Error);
  T.check(!R.OK || (R.ResultDisplay == Oracle.Display &&
                    R.Output == Oracle.Output),
          Where + ": result differs from the oracle");
  T.check(!R.OK || R.LiveObjects == 0, Where + ": leaked cells");
}

Reference oracleOf(const lambda::Program &P) {
  driver::RunResult R = driver::runOracle(P);
  return {R.ResultDisplay, R.Output};
}

void addPairs(std::vector<Pair> &Out, unsigned Input,
              const std::vector<PipelineVariant> &Variants) {
  for (PipelineVariant V : Variants) {
    Pair P;
    P.Input = Input;
    P.Variant = V;
    Out.push_back(std::move(P));
  }
}

/// Fills the generated pool of compile_corpus from the seed's stream. The
/// pool is dealt into slices by size rank (slice s gets ranks s, s + S,
/// ...), so every compile round carries a similar mix and the round-time
/// percentiles do not just pick out the cheapest slice.
void generatePool(Workload &W, Tally &T) {
  std::vector<std::pair<size_t, BenchInput>> Pool; // (nodes, input)
  for (unsigned J = 0; J < MaxCandidates && Pool.size() < PoolSize; ++J) {
    programs::ProgramGenerator G(static_cast<unsigned>(W.Seed * 1000003u + J),
                                 corpusGeneratorOptions());
    std::string Source = G.generate();
    lambda::Program P;
    if (!parse(Source, P)) {
      T.check(false, "generated candidate " + std::to_string(J) +
                         ": parse error");
      continue;
    }
    size_t Nodes = 0;
    for (const lambda::Function &F : P.Functions)
      Nodes += countNodes(F.Body.get());
    if (Nodes < MinNodes || Nodes > MaxNodes)
      continue;
    BenchInput In;
    In.Name = "gen." + std::to_string(J);
    In.Source = std::move(Source);
    In.Generated = true;
    In.Expect = oracleOf(P);
    Pool.push_back({Nodes, std::move(In)});
  }
  T.check(Pool.size() == PoolSize, "generated pool not filled");
  std::stable_sort(Pool.begin(), Pool.end(), [](const auto &A, const auto &B) {
    return A.first < B.first;
  });
  const size_t Slices = Pool.size() / PoolSlice;
  for (size_t S = 0; S != Slices; ++S)
    for (size_t K = 0; K != PoolSlice; ++K)
      W.Inputs.push_back(std::move(Pool[K * Slices + S].second));
}

} // namespace

void Tally::fail(const std::string &What) {
  ++Attempted;
  ++Failed;
  // Report the first few failures; the count is in the result line.
  if (Failed <= 20)
    std::fprintf(stderr, "lzbench: FAILED: %s\n", What.c_str());
}

const std::vector<std::string> &lzbench::runProgramNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const auto &[Name, Size] : RunSizes)
      N.push_back(Name);
    return N;
  }();
  return Names;
}

//===----------------------------------------------------------------------===//
// Pinned references
//===----------------------------------------------------------------------===//

bool lzbench::readReferences(const std::string &Path, ReferenceTable &Out,
                             std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read " + Path;
    return false;
  }
  for (std::string Line; std::getline(In, Line);) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t A = Line.find('\t');
    size_t B = A == std::string::npos ? A : Line.find('\t', A + 1);
    if (B == std::string::npos) {
      Error = "malformed line in " + Path + ": " + Line;
      return false;
    }
    Out[Line.substr(0, A)] = {unescapeField(Line.substr(A + 1, B - A - 1)),
                              unescapeField(Line.substr(B + 1))};
  }
  return true;
}

bool lzbench::writeReferences(const std::string &Path,
                              const ReferenceTable &Table) {
  std::ofstream Out(Path);
  Out << "# <program>@<size>\t<result display>\t<stdout>, escaped \\t \\n "
         "\\\\.\n# Regenerate: python3 perfbench/run.py "
         "--write-references\n";
  for (const auto &[Key, R] : Table)
    Out << Key << '\t' << escapeField(R.Display) << '\t'
        << escapeField(R.Output) << '\n';
  return static_cast<bool>(Out);
}

bool lzbench::checkReferences(const std::string &Path, bool Rewrite) {
  std::vector<std::pair<std::string, std::string>> Sources; // key, source
  for (const FixedProgram &F : builtinPrograms()) {
    Sources.push_back({refKey(F.Name, F.TestSize), F.TestSource});
    long Size = runSize(F.Name);
    if (Size >= 0)
      Sources.push_back(
          {refKey(F.Name, Size), programs::instantiate(*F.Suite, Size)});
  }
  ReferenceTable Fresh;
  bool ParseOK = true;
  onLargeStack([&] {
    for (const auto &[Key, Source] : Sources) {
      lambda::Program P;
      if (!parse(Source, P)) {
        std::fprintf(stderr, "lzbench: %s: parse error\n", Key.c_str());
        ParseOK = false;
        continue;
      }
      auto Start = Clock::now();
      Fresh[Key] = oracleOf(P);
      std::fprintf(stderr, "oracle %-28s %8.2f s\n", Key.c_str(),
                   secondsBetween(Start, Clock::now()));
    }
  });
  if (!ParseOK)
    return false;
  if (Rewrite)
    return writeReferences(Path, Fresh);

  ReferenceTable Pinned;
  std::string Error;
  if (!readReferences(Path, Pinned, Error)) {
    std::fprintf(stderr, "lzbench: %s\n", Error.c_str());
    return false;
  }
  bool Same = Pinned.size() == Fresh.size();
  for (const auto &[Key, R] : Fresh) {
    auto It = Pinned.find(Key);
    if (It == Pinned.end() || !(It->second == R)) {
      std::fprintf(stderr, "lzbench: reference %s: pinned '%s', oracle '%s'\n",
                   Key.c_str(),
                   It == Pinned.end() ? "<missing>"
                                      : It->second.Display.c_str(),
                   R.Display.c_str());
      Same = false;
    }
  }
  return Same;
}

//===----------------------------------------------------------------------===//
// Compile and run primitives
//===----------------------------------------------------------------------===//

uint64_t lzbench::instrCount(const vm::Program &P) {
  uint64_t N = 0;
  for (const vm::CompiledFunction &F : P.Functions)
    N += F.Code.size();
  return N;
}

bool lzbench::sameBytecode(const vm::Program &A, const vm::Program &B) {
  if (A.Functions.size() != B.Functions.size())
    return false;
  for (size_t I = 0; I != A.Functions.size(); ++I) {
    const vm::CompiledFunction &X = A.Functions[I], &Y = B.Functions[I];
    if (X.Name != Y.Name || X.NumParams != Y.NumParams ||
        X.NumRegs != Y.NumRegs || X.Aux != Y.Aux || X.ImmPool != Y.ImmPool ||
        X.BigPool != Y.BigPool || X.Code.size() != Y.Code.size())
      return false;
    for (size_t J = 0; J != X.Code.size(); ++J)
      if (X.Code[J].Op != Y.Code[J].Op || X.Code[J].A != Y.Code[J].A ||
          X.Code[J].B != Y.Code[J].B || X.Code[J].C != Y.Code[J].C)
        return false;
  }
  return true;
}

uint64_t lzbench::compileOnce(const std::string &Source,
                              const lower::PipelineOptions &Opts,
                              vm::Program *Out) {
  Context Ctx;
  registerAllDialects(Ctx);
  lambda::Program P;
  if (!parse(Source, P))
    return 0;
  lower::CompileResult CR = lower::compileProgram(P, Ctx, Opts);
  if (!CR.OK)
    return 0;
  uint64_t N = instrCount(CR.Prog);
  if (Out)
    *Out = std::move(CR.Prog);
  return N;
}

RunOutcome lzbench::runOnce(const Pair &P, const BenchInput &In, Tally &T) {
  RunOutcome O;
  std::string Output;
  StringOStream Out(Output);
  rt::Runtime RT;
  vm::VM Machine(P.Prog, RT, &Out);
  auto Where = [&] {
    return In.Name + " [" + lower::pipelineVariantName(P.Variant) + "]";
  };
  auto T0 = Clock::now();
  rt::ObjRef Result = rt::boxScalar(0);
  try {
    Result = Machine.run("main", {});
  } catch (const vm::TrapError &E) {
    T.fail(Where() + ": trap: " + E.Message);
    return O;
  }
  auto T1 = Clock::now();
  std::string Display = RT.toDisplayString(Result);
  auto T2 = Clock::now();
  RT.dec(Result);
  auto T3 = Clock::now();
  O.Seconds = secondsBetween(T0, T1) + secondsBetween(T2, T3);
  O.Steps = Machine.getSteps();
  O.OK = Display == In.Expect.Display && Output == In.Expect.Output &&
         RT.getLiveObjects() == 0 && (P.Steps == 0 || O.Steps == P.Steps);
  if (O.OK)
    T.pass();
  else
    T.fail(Where() + ": got '" + Display + "' (" +
           std::to_string(RT.getLiveObjects()) + " live cells, " +
           std::to_string(O.Steps) + " steps), want '" + In.Expect.Display +
           "'");
  return O;
}

CpuRotation::CpuRotation() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return;
  Original.assign(reinterpret_cast<unsigned char *>(&Set),
                  reinterpret_cast<unsigned char *>(&Set) + sizeof(Set));
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Cpus.push_back(C);
}

CpuRotation::~CpuRotation() {
  if (!Original.empty())
    sched_setaffinity(0, Original.size(),
                      reinterpret_cast<cpu_set_t *>(Original.data()));
}

void CpuRotation::enter(uint64_t Round) {
  if (Cpus.size() < 2)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Round % Cpus.size()], &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

double lzbench::runSample(const Pair &P, const BenchInput &In, Tally &T) {
  double Total = 0;
  for (unsigned R = 0; R != In.Reps; ++R)
    Total += runOnce(P, In, T).Seconds;
  return Total / In.Reps;
}

std::vector<size_t> lzbench::roundOrder(size_t N, uint64_t Seed,
                                        uint64_t Round) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = N ? (Seed + Round + I) % N : 0;
  return Order;
}

std::vector<const Pair *> lzbench::compileRound(const Workload &W,
                                                uint64_t Round) {
  std::vector<const Pair *> Pairs;
  for (const Pair &P : W.CompilePairs)
    Pairs.push_back(&P);
  if (!W.PoolPairs.empty()) {
    size_t PerSlice = W.GeneratedPerRound * W.CompileVariants.size();
    size_t Slices = W.PoolPairs.size() / PerSlice;
    size_t Slice = (W.Seed + Round) % Slices;
    for (size_t I = 0; I != PerSlice; ++I)
      Pairs.push_back(&W.PoolPairs[Slice * PerSlice + I]);
  }
  std::vector<const Pair *> Ordered;
  for (size_t I : roundOrder(Pairs.size(), W.Seed, Round))
    Ordered.push_back(Pairs[I]);
  return Ordered;
}

double lzbench::median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : (Xs[N / 2 - 1] + Xs[N / 2]) / 2;
}

double lzbench::percentile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * Xs.size()));
  return Xs[std::clamp<size_t>(Rank, 1, Xs.size()) - 1];
}

//===----------------------------------------------------------------------===//
// Workloads and set-up
//===----------------------------------------------------------------------===//

bool lzbench::makeWorkload(const std::string &Name, uint64_t Seed,
                           const ReferenceTable &Refs, Workload &W,
                           Tally &T) {
  W = Workload();
  W.Name = Name;
  W.Seed = Seed;
  auto Pinned = [&](const std::string &Key) {
    auto It = Refs.find(Key);
    T.check(It != Refs.end(), "no pinned reference for " + Key);
    return It == Refs.end() ? Reference() : It->second;
  };

  if (Name == "paper_run" || Name == "higher_order_run") {
    const auto &Suite = Name == "paper_run" ? programs::getBenchmarkSuite()
                                            : programs::getHigherOrderSuite();
    W.CompileVariants = W.RunVariants = {PipelineVariant::Leanc,
                                         PipelineVariant::Full};
    for (const programs::BenchProgram &B : Suite) {
      BenchInput In;
      In.Name = B.Name;
      In.Size = runSize(B.Name);
      In.Source = programs::instantiate(B, In.Size);
      In.Timed = true;
      In.Expect = Pinned(refKey(B.Name, In.Size));
      W.Inputs.push_back(std::move(In));
    }
  } else if (Name == "compile_corpus") {
    W.CompileVariants.assign(std::begin(AllVariants), std::end(AllVariants));
    W.RunVariants = {PipelineVariant::Leanc, PipelineVariant::Full};
    W.GeneratedPerRound = PoolSlice;
    for (const FixedProgram &F : builtinPrograms()) {
      BenchInput In;
      In.Name = F.Name;
      In.Size = F.TestSize;
      In.Source = F.TestSource;
      In.Timed = true;
      In.Expect = Pinned(refKey(F.Name, F.TestSize));
      W.Inputs.push_back(std::move(In));
    }
  } else {
    return false;
  }
  return true;
}

void lzbench::setUp(Workload &W, const ReferenceTable &Refs, Tally &T) {
  // Every fixed program at its test size: the oracle agrees with the pinned
  // answer, and every compile variant agrees with the oracle.
  for (const FixedProgram &F : builtinPrograms()) {
    bool InWorkload = std::any_of(
        W.Inputs.begin(), W.Inputs.end(),
        [&](const BenchInput &In) { return In.Name == F.Name; });
    if (!InWorkload)
      continue;
    lambda::Program P;
    if (!parse(F.TestSource, P)) {
      T.check(false, F.Name + ": parse error");
      continue;
    }
    Reference Oracle = oracleOf(P);
    auto It = Refs.find(refKey(F.Name, F.TestSize));
    T.check(It != Refs.end() && It->second == Oracle,
            F.Name + ": oracle differs from the pinned test-size answer");
    for (PipelineVariant V : W.CompileVariants)
      checkAgainstOracle(F.Name, F.TestSource, Oracle, V, 0, T);
  }

  if (W.GeneratedPerRound) {
    generatePool(W, T);
    for (const BenchInput &In : W.Inputs)
      if (In.Generated)
        for (PipelineVariant V : W.CompileVariants)
          checkAgainstOracle(In.Name, In.Source, In.Expect, V, GeneratedFuel,
                             T);
  }

  W.CompilePairs.clear();
  W.PoolPairs.clear();
  W.RunPairs.clear();
  for (unsigned I = 0; I != W.Inputs.size(); ++I) {
    addPairs(W.Inputs[I].Generated ? W.PoolPairs : W.CompilePairs, I,
             W.CompileVariants);
    if (W.Inputs[I].Timed)
      addPairs(W.RunPairs, I, W.RunVariants);
  }

  W.FullInstrs = 0;
  for (auto *Pairs : {&W.CompilePairs, &W.PoolPairs})
    for (Pair &P : *Pairs) {
      P.Instrs = compileOnce(W.Inputs[P.Input].Source,
                             lower::PipelineOptions::forVariant(P.Variant));
      T.check(P.Instrs != 0, W.Inputs[P.Input].Name + ": compile failed");
      if (P.Variant == PipelineVariant::Full && !W.Inputs[P.Input].Generated)
        W.FullInstrs += P.Instrs;
    }

  // Reference check at the run size; the step counts it records are what
  // every timed run must reproduce, and they set the repetitions.
  for (Pair &P : W.RunPairs) {
    BenchInput &In = W.Inputs[P.Input];
    P.Instrs = compileOnce(In.Source,
                           lower::PipelineOptions::forVariant(P.Variant),
                           &P.Prog);
    T.check(P.Instrs != 0, In.Name + ": compile failed");
    P.Steps = runOnce(P, In, T).Steps;
  }
  for (BenchInput &In : W.Inputs) {
    uint64_t MinSteps = 0;
    for (const Pair &P : W.RunPairs)
      if (&W.Inputs[P.Input] == &In)
        MinSteps = MinSteps ? std::min(MinSteps, P.Steps) : P.Steps;
    if (MinSteps)
      In.Reps = static_cast<unsigned>(std::clamp<uint64_t>(
          (MinSampleSteps + MinSteps - 1) / MinSteps, 1, MaxReps));
  }

  // Warm-up: one run round and one compile round, untimed.
  for (const Pair &P : W.RunPairs)
    runOnce(P, W.Inputs[P.Input], T);
  for (const Pair *P : compileRound(W, 0))
    compileOnce(W.Inputs[P->Input].Source,
                lower::PipelineOptions::forVariant(P->Variant));
}

//===----------------------------------------------------------------------===//
// The untraced run
//===----------------------------------------------------------------------===//

namespace {

/// Timed samples of the untraced run.
struct Samples {
  std::vector<double> CompileRounds;
  /// Per run variant, per round: the sum of per-run times.
  std::map<PipelineVariant, std::vector<double>> RunRounds;
  /// Per run pair (index into W.RunPairs): per-run times.
  std::vector<std::vector<double>> PairRuns;
  /// The same round times in reference seconds.
  std::vector<double> CompileRef;
  std::map<PipelineVariant, std::vector<double>> RunRef;
};

/// Returns the round's time per run variant.
std::map<PipelineVariant, double> timedRunRound(const Workload &W,
                                                uint64_t Round, Samples &S,
                                                Tally &T) {
  std::map<PipelineVariant, double> Sums;
  for (size_t I : roundOrder(W.RunPairs.size(), W.Seed, Round)) {
    const Pair &P = W.RunPairs[I];
    double PerRun = runSample(P, W.Inputs[P.Input], T);
    S.PairRuns[I].push_back(PerRun);
    Sums[P.Variant] += PerRun;
  }
  for (const auto &[V, Sum] : Sums)
    S.RunRounds[V].push_back(Sum);
  return Sums;
}

double timedCompileRound(const Workload &W, uint64_t Round, Samples &S,
                         Tally &T) {
  double Total = 0;
  for (const Pair *P : compileRound(W, Round)) {
    auto T0 = Clock::now();
    uint64_t N = compileOnce(W.Inputs[P->Input].Source,
                             lower::PipelineOptions::forVariant(P->Variant));
    Total += secondsBetween(T0, Clock::now());
    if (N != 0 && N == P->Instrs)
      T.pass();
    else
      T.fail(W.Inputs[P->Input].Name + " [" +
             lower::pipelineVariantName(P->Variant) +
             "]: compile failed or emitted a different instruction count");
  }
  S.CompileRounds.push_back(Total);
  return Total;
}

} // namespace

void lzbench::runEndToEnd(Workload &W, const ReferenceTable &Refs,
                          double Seconds, Metrics &M, Tally &T) {
  // Every timed block runs between two calibrations and is reported in
  // reference seconds: its time over the calibrations' mean, times the
  // kernel's time on the reference core. On a shared box the speed a core
  // delivers drifts by tens of percent over minutes; the calibrations
  // drift with it, so the ratio moves by a few percent where the wall
  // time moved by 20-30% from run to run.
  auto ToReference = [](double Took, double Before, double After) {
    return Took / ((Before + After) / 2) * CalibRefSeconds;
  };

  // The first set-up builds the state the rounds use. The others are timed
  // and dropped; they are spread over the run so that their median does
  // not hang on one busy phase of the box.
  std::vector<double> SetupTimes, SetupRef;
  const std::string Name = W.Name;
  const uint64_t Seed = W.Seed;
  auto TimedSetUp = [&](Workload &Into) {
    double Before = calibrate();
    auto Start = Clock::now();
    makeWorkload(Name, Seed, Refs, Into, T);
    setUp(Into, Refs, T);
    double Took = secondsBetween(Start, Clock::now());
    SetupTimes.push_back(Took);
    SetupRef.push_back(ToReference(Took, Before, calibrate()));
  };
  TimedSetUp(W);

  Samples S;
  S.PairRuns.resize(W.RunPairs.size());
  std::vector<double> Calibrations;
  auto Start = Clock::now();
  // On a busy box the minimum round count can take longer than --seconds;
  // stop soon after regardless, so a run's length stays predictable.
  const double HardStop = Seconds + 5;
  CpuRotation Cpus;
  for (uint64_t Round = 0;; ++Round) {
    Cpus.enter(Round);
    double C0 = calibrate();
    std::map<PipelineVariant, double> Sums = timedRunRound(W, Round, S, T);
    double C1 = calibrate();
    double Compile = timedCompileRound(W, Round, S, T);
    double C2 = calibrate();
    for (const auto &[V, Sum] : Sums)
      S.RunRef[V].push_back(ToReference(Sum, C0, C1));
    S.CompileRef.push_back(ToReference(Compile, C1, C2));
    Calibrations.insert(Calibrations.end(), {C0, C1, C2});
    double Elapsed = secondsBetween(Start, Clock::now());
    if (SetupTimes.size() < SetupRepeats &&
        Elapsed >= Seconds * SetupTimes.size() / SetupRepeats) {
      Workload Dropped;
      TimedSetUp(Dropped);
    }
    if ((Elapsed >= Seconds && Round + 1 >= MinRounds) || Elapsed >= HardStop)
      break;
  }

  std::map<std::string, std::pair<double, double>> PerProgram; // leanc, full
  for (size_t I = 0; I != W.RunPairs.size(); ++I) {
    const Pair &P = W.RunPairs[I];
    auto &Entry = PerProgram[W.Inputs[P.Input].Name];
    (P.Variant == PipelineVariant::Leanc ? Entry.first : Entry.second) =
        median(S.PairRuns[I]);
  }
  double LogSum = 0;
  for (const auto &[Name, LF] : PerProgram)
    LogSum += std::log(LF.first / LF.second);

  const std::vector<double> &Full = S.RunRef[PipelineVariant::Full];
  const std::vector<double> &Leanc = S.RunRef[PipelineVariant::Leanc];
  M.add("setup_s", median(SetupRef), "s");
  M.add("run_full_s", median(Full), "s");
  M.add("run_leanc_s", median(Leanc), "s");
  M.add("full_speedup_geomean", std::exp(LogSum / PerProgram.size()), "x");
  M.add("compile_s", median(S.CompileRef), "s");
  M.add("compile_s_p90", percentile(S.CompileRef, 0.9), "s");
  M.add("bytecode_instrs", static_cast<double>(W.FullInstrs), "count");

  // Reference seconds first, then the wall-clock times they came from.
  std::printf("stats:");
  for (const auto &[Name, Xs] :
       {std::pair{"run_full", &Full}, {"run_leanc", &Leanc},
        {"compile", &S.CompileRef}, {"setup", &SetupRef},
        {"wall_run_full", &S.RunRounds[PipelineVariant::Full]},
        {"wall_run_leanc", &S.RunRounds[PipelineVariant::Leanc]},
        {"wall_compile", &S.CompileRounds}, {"wall_setup", &SetupTimes},
        {"calibration", &Calibrations}})
    std::printf(" %s n=%zu p10=%.6g median=%.6g p90=%.6g;", Name, Xs->size(),
                percentile(*Xs, 0.1), median(*Xs), percentile(*Xs, 0.9));
  std::printf(" generated_pool=%zu\n",
              W.PoolPairs.size() / W.CompileVariants.size());
}
