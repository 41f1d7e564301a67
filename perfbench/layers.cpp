//===- layers.cpp - the traced run: per-layer time and counts -------------===//
//
// Part of the lambda-ssa project, reproducing "Lambda the Ultimate SSA"
// (CGO 2022). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Attributes compile and run cost to the compiler's modules from outside
/// them: standalone calls into the frontend layers on a fresh parse, and
/// timestamps taken by a ModuleStageObserver that compileProgram calls
/// after every lowering and pass, so the stage list is the pipeline's own.
///
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "trace.h"

#include "dialect/Dialects.h"
#include "lambda/MiniLean.h"
#include "lambda/Simplify.h"
#include "lower/Lowering.h"
#include "rc/RCInsert.h"
#include "rewrite/Pass.h"
#include "support/OStream.h"
#include "vm/VM.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

using namespace lz;
using namespace lzbench;
using lower::PipelineVariant;

namespace {

/// Layer times in seconds per compile round. The first six are timed by
/// standalone calls or around compileProgram; the rest are stage intervals.
const char *const LayerTimes[] = {
    "lambda.parse_s",        "lambda.simplify_s",     "rc.insert_s",
    "lower.lambda_to_lp_s",  "lower.direct_s",        "ir.teardown_s",
    "transform.arity_raise_s", "transform.devirt_s",  "lower.lp_to_rgn_s",
    "rewrite.canonicalize_s", "rewrite.cse_s",        "rewrite.dce_s",
    "rewrite.sccp_s",        "lower.rgn_to_cf_s",     "vm.emit_s",
};

/// IR size after each pipeline phase, in ops; a phase that did not run
/// carries the previous phase's size.
const char *const IRPhases[] = {"lambda_to_lp", "closure_opt", "lp_to_rgn",
                                "rgn_opt",      "rgn_to_cf",   "cf_opt"};

const char *const PassCounters[] = {
    "pass.canonicalize.ops-folded",
    "pass.canonicalize.patterns-applied",
    "pass.cse.num-csed",
    "pass.dce.ops-erased",
    "pass.dce.blocks-erased",
    "pass.sccp.constants-propagated",
    "pass.sccp.branches-rewritten",
    "pass.arity-raise.calls-uncurried",
    "pass.devirt.closures-devirtualized",
    "pass.devirt.closure-allocs-deleted",
};

const char *const OpClasses[] = {"rc", "alloc", "apply", "call", "branch",
                                 "builtin"};

const char *opClass(vm::Opcode Op) {
  using vm::Opcode;
  switch (Op) {
  case Opcode::Inc: case Opcode::Dec: case Opcode::IncN: case Opcode::DecN:
    return "rc";
  case Opcode::Construct: case Opcode::Pap: case Opcode::BigConst:
    return "alloc";
  case Opcode::Apply: case Opcode::PapApply:
    return "apply";
  case Opcode::Call: case Opcode::TailCall: case Opcode::Ret:
  case Opcode::RetConst:
    return "call";
  case Opcode::Br: case Opcode::CondBr: case Opcode::CmpBr:
  case Opcode::SwitchBr: case Opcode::DecCmpBr:
    return "branch";
  case Opcode::CallBuiltin: case Opcode::NatAdd: case Opcode::NatSub:
  case Opcode::NatMul: case Opcode::NatDiv: case Opcode::NatMod:
  case Opcode::DecEq: case Opcode::DecLt: case Opcode::DecLe:
  case Opcode::IntAdd: case Opcode::IntSub: case Opcode::IntMul:
  case Opcode::IntDiv: case Opcode::IntMod:
    return "builtin";
  default:
    return nullptr;
  }
}

std::string underscored(std::string S) {
  std::replace(S.begin(), S.end(), '-', '_');
  return S;
}

/// Keeps what a metric name may hold (letters, digits, '_', '.', '-').
std::string metricSafe(const std::string &S) {
  std::string Out;
  for (char C : S)
    if (std::isalnum(static_cast<unsigned char>(C)) || C == '_' || C == '.' ||
        C == '-')
      Out += C;
  return Out;
}

/// The layer an observed stage interval is charged to. The first interval
/// (clone, simplifier, RC insertion and the first lowering) is "" because
/// the standalone calls time those layers; pass stages are
/// "<phase>.<n>.<pass>", and a stage no layer claims stays unattributed.
std::string layerOf(const std::string &Stage) {
  if (Stage == "lower-lambda-to-lp" || Stage == "lower-direct")
    return "";
  if (Stage == "lower-lp-to-rgn")
    return "lower.lp_to_rgn_s";
  if (Stage == "lower-rgn-to-cf")
    return "lower.rgn_to_cf_s";
  if (Stage == "mark-tail-calls" || Stage == "vm-emit")
    return "vm.emit_s";
  size_t A = Stage.find('.');
  size_t B = A == std::string::npos ? A : Stage.find('.', A + 1);
  if (B == std::string::npos)
    return "stage." + Stage;
  std::string Phase = Stage.substr(0, A);
  return (Phase == "closure-opt" ? "transform." : "rewrite.") +
         underscored(Stage.substr(B + 1)) + "_s";
}

/// Index into IRPhases of the phase a stage closes, or -1.
int irPhaseOf(const std::string &Stage) {
  if (Stage == "lower-lambda-to-lp")
    return 0;
  if (Stage.rfind("closure-opt.", 0) == 0)
    return 1;
  if (Stage == "lower-lp-to-rgn")
    return 2;
  if (Stage.rfind("rgn-opt.", 0) == 0)
    return 3;
  if (Stage == "lower-rgn-to-cf")
    return 4;
  if (Stage.rfind("cf-opt.", 0) == 0)
    return 5;
  return -1;
}

/// Timestamps compileProgram's stage reports. The interval that ends at a
/// stage's report is that stage's cost; the next interval starts when the
/// observer returns, so its own time (counting ops) is excluded.
class StageClock : public lower::ModuleStageObserver {
public:
  struct Stage {
    std::string Name;
    Clock::time_point Begin, End;
    uint64_t Ops;
  };

  void start() {
    Stages.clear();
    OwnSeconds = 0;
    Last = Clock::now();
  }
  void observeStage(std::string_view Name, Operation *Module) override {
    auto Enter = Clock::now();
    uint64_t Ops = 0;
    for (unsigned I = 0; I != Module->getNumRegions(); ++I)
      Module->getRegion(I).walk([&](Operation *) { ++Ops; });
    Stages.push_back({std::string(Name), Last, Enter, Ops});
    Last = Clock::now();
    OwnSeconds += secondsBetween(Enter, Last);
  }
  /// Closes the last interval at compileProgram's return: bytecode
  /// emission after the "mark-tail-calls" report.
  void finish() { Stages.push_back({"vm-emit", Last, Clock::now(), 0}); }

  std::vector<Stage> Stages;
  double OwnSeconds = 0;

private:
  Clock::time_point Last;
};

/// One compile with the stage observer attached, split into the parts the
/// layer metrics name. Times exclude the observer's own time.
struct ObservedCompile {
  bool OK = false;
  double Wall = 0, WallWithObserver = 0;
  double Parse = 0, Teardown = 0;
  std::map<std::string, double> Layers; ///< stage intervals by layer
  std::vector<int64_t> Ops;             ///< per IRPhases entry
  std::map<std::string, uint64_t> Stats;
  vm::Program Prog;
};

ObservedCompile observedCompile(const std::string &Source,
                                lower::PipelineOptions Opts,
                                SpanRecorder *R, bool KeepProgram) {
  ObservedCompile C;
  StageClock SC;
  StatisticsReport Report;
  Opts.Validate = &SC;
  Opts.Instrument.Statistics = &Report;

  auto W0 = Clock::now();
  std::optional<Context> Ctx;
  {
    ScopedSpan S(R, "context", "ir");
    Ctx.emplace();
    registerAllDialects(*Ctx);
  }
  std::optional<lambda::Program> P(std::in_place);
  auto P0 = Clock::now();
  bool Parsed;
  {
    ScopedSpan S(R, "parse", "lambda");
    std::string Error;
    Parsed = succeeded(lambda::parseMiniLean(Source, *P, Error));
  }
  C.Parse = secondsBetween(P0, Clock::now());
  if (!Parsed)
    return C;

  std::optional<lower::CompileResult> CR;
  {
    ScopedSpan S(R, "compile", "pipeline");
    SC.start();
    CR.emplace(lower::compileProgram(*P, *Ctx, Opts));
    SC.finish();
    if (R)
      for (const StageClock::Stage &St : SC.Stages)
        R->add(layerOf(St.Name).empty() ? "frontend+" + St.Name : St.Name,
               "stage", St.Begin, St.End);
  }
  if (KeepProgram)
    C.Prog = CR->Prog; // copied, so teardown destroys what a plain one does
  C.OK = CR->OK;

  auto T0 = Clock::now();
  {
    ScopedSpan S(R, "teardown", "ir");
    CR.reset();
    P.reset();
    Ctx.reset();
  }
  auto W1 = Clock::now();
  C.Teardown = secondsBetween(T0, W1);
  C.WallWithObserver = secondsBetween(W0, W1);
  C.Wall = C.WallWithObserver - SC.OwnSeconds;

  C.Ops.assign(std::size(IRPhases), -1);
  for (const StageClock::Stage &St : SC.Stages) {
    std::string Layer = layerOf(St.Name);
    if (!Layer.empty())
      C.Layers[Layer] += secondsBetween(St.Begin, St.End);
    if (int Phase = irPhaseOf(St.Name); Phase >= 0)
      C.Ops[Phase] = static_cast<int64_t>(St.Ops);
  }
  for (size_t I = 0; I != C.Ops.size(); ++I)
    if (C.Ops[I] < 0)
      C.Ops[I] = I == 0 ? 0 : C.Ops[I - 1];
  // Pass counters only: the "(analysis)" cache rows depend on whether the
  // verifier asked for dominance too.
  for (const StatisticsReport::Row &Row : Report.getRows())
    if (Row.PassName.rfind('(', 0) != 0)
      C.Stats["pass." + Row.PassName + "." + metricSafe(Row.StatName)] +=
        Row.Value;
  return C;
}

/// Standalone calls into the frontend layers and the first lowering on a
/// fresh parse, as compileProgram would make them for \p Opts.
void timeFrontendLayers(const std::string &Source,
                        const lower::PipelineOptions &Opts, SpanRecorder *R,
                        std::map<std::string, double> &Layers) {
  lambda::Program P;
  std::string Error;
  if (failed(lambda::parseMiniLean(Source, P, Error)))
    return;
  ScopedSpan Outer(R, "layers", "layers");
  auto Timed = [&](const char *Name, const char *Layer, auto &&Fn) {
    ScopedSpan S(R, Name, "layers");
    auto T0 = Clock::now();
    Fn();
    Layers[Layer] += secondsBetween(T0, Clock::now());
  };
  if (Opts.RunLambdaSimplifier)
    Timed("simplify", "lambda.simplify_s", [&] { lambda::simplifyProgram(P); });
  rc::RCOptions RCOpts;
  RCOpts.BorrowInference = Opts.BorrowInference;
  Timed("rc-insert", "rc.insert_s", [&] { rc::insertRC(P, RCOpts); });
  Context Ctx;
  registerAllDialects(Ctx);
  OwningOpRef Module;
  if (Opts.UseRgnBackend)
    Timed("lower-lambda-to-lp", "lower.lambda_to_lp_s",
          [&] { Module = lower::lowerLambdaToLp(P, Ctx, Opts.RecordSites); });
  else
    Timed("lower-direct", "lower.direct_s",
          [&] { Module = lower::lowerLambdaToCfDirect(P, Ctx); });
}

/// Per-pair values that must repeat exactly in every traced round.
struct PairCounts {
  std::vector<int64_t> Ops;
  std::map<std::string, uint64_t> Stats;
};

/// Counts from one instrumented run of a run pair.
struct RunCounts {
  uint64_t Steps = 0, ClosureAllocs = 0, GenericApplies = 0;
  uint64_t Allocs = 0, Incs = 0, Decs = 0;
  std::map<std::string, uint64_t> OpClass;
};

RunCounts instrumentedRun(const Pair &P, const BenchInput &In, Tally &T) {
  RunCounts C;
  lower::PipelineOptions Opts = lower::PipelineOptions::forVariant(P.Variant);
  Opts.RecordSites = true;
  vm::Program Prog;
  if (!compileOnce(In.Source, Opts, &Prog)) {
    T.check(false, In.Name + ": site-recording compile failed");
    return C;
  }
  std::string Output;
  StringOStream Out(Output);
  rt::Runtime RT;
  vm::VM Machine(Prog, RT, &Out);
  Machine.enableProfiling();
  Machine.enableHeapProfiling();
  std::string Where =
      In.Name + " [" + lower::pipelineVariantName(P.Variant) + "]";
  rt::ObjRef Result = rt::boxScalar(0);
  try {
    Result = Machine.run("main", {});
  } catch (const vm::TrapError &E) {
    T.check(false, Where + ": trap in the instrumented run: " + E.Message);
    return C;
  }
  std::string Display = RT.toDisplayString(Result);
  RT.dec(Result);
  C.Steps = Machine.getSteps();
  T.check(Display == In.Expect.Display && Output == In.Expect.Output &&
              RT.getLiveObjects() == 0 && C.Steps == P.Steps,
          Where + ": instrumented run differs from the plain run");
  C.ClosureAllocs = Machine.getClosureAllocs();
  C.GenericApplies = Machine.getGenericApplies();
  for (const rt::SiteStats &S : RT.getSiteStats()) {
    C.Allocs += S.Allocs;
    C.Incs += S.Incs;
    C.Decs += S.Decs;
  }
  std::span<const uint64_t> Hist = Machine.getProfile();
  for (size_t Op = 0; Op != Hist.size(); ++Op)
    if (const char *Class = opClass(static_cast<vm::Opcode>(Op)))
      C.OpClass[Class] += Hist[Op];
  return C;
}

std::string pairName(const Workload &W, const Pair &P) {
  return W.Inputs[P.Input].Name + "/" + lower::pipelineVariantName(P.Variant);
}

} // namespace

void lzbench::runTraced(Workload &W, double Seconds, const std::string &OutDir,
                        const std::string &Provenance, Metrics &M, Tally &T) {
  SpanRecorder Rec;
  int WorkloadSpan = Rec.begin("workload " + W.Name, "workload");

  // Counts: one compile of every compile pair (with the observer and with
  // pass statistics) and one instrumented run of every run pair. The
  // observed compile must emit the bytecode a plain compile emits.
  std::map<const Pair *, PairCounts> Expected;
  std::map<std::string, uint64_t> StatTotals;
  std::vector<int64_t> OpsTotals(std::size(IRPhases), 0);
  {
    ScopedSpan S(&Rec, "counts", "setup");
    for (auto *Pairs : {&W.CompilePairs, &W.PoolPairs})
      for (const Pair &P : *Pairs) {
        const std::string &Source = W.Inputs[P.Input].Source;
        lower::PipelineOptions Opts =
            lower::PipelineOptions::forVariant(P.Variant);
        vm::Program Plain;
        compileOnce(Source, Opts, &Plain);
        Opts.VerifyEach = false;
        ObservedCompile C = observedCompile(Source, Opts, nullptr, true);
        T.check(C.OK && sameBytecode(Plain, C.Prog),
                pairName(W, P) + ": observed compile emitted other bytecode");
        for (size_t I = 0; I != OpsTotals.size(); ++I)
          OpsTotals[I] += C.Ops[I];
        for (const auto &[Name, V] : C.Stats)
          StatTotals[Name] += V;
        Expected[&P] = {C.Ops, C.Stats};
      }
  }
  std::map<PipelineVariant, RunCounts> RunTotals;
  for (const Pair &P : W.RunPairs) {
    ScopedSpan S(&Rec, "instrumented run", "setup");
    RunCounts C = instrumentedRun(P, W.Inputs[P.Input], T);
    RunCounts &Tot = RunTotals[P.Variant];
    Tot.Steps += C.Steps;
    Tot.ClosureAllocs += C.ClosureAllocs;
    Tot.GenericApplies += C.GenericApplies;
    Tot.Allocs += C.Allocs;
    Tot.Incs += C.Incs;
    Tot.Decs += C.Decs;
    for (const auto &[Class, N] : C.OpClass)
      Tot.OpClass[Class] += N;
  }

  // Traced rounds, scheduled as the untraced run schedules them.
  std::map<std::string, std::vector<double>> LayerRounds;
  std::vector<double> Unattributed, Overhead;
  std::vector<std::vector<double>> PairRuns(W.RunPairs.size());
  auto Start = Clock::now();
  uint64_t Rounds = 0;
  const double HardStop = Seconds + 10;
  CpuRotation Cpus;
  for (;; ++Rounds) {
    Cpus.enter(Rounds);
    {
      ScopedSpan RS(&Rec, "run round", "round");
      for (size_t I : roundOrder(W.RunPairs.size(), W.Seed, Rounds)) {
        const Pair &P = W.RunPairs[I];
        ScopedSpan PS(&Rec, pairName(W, P), "pair");
        ScopedSpan Run(&Rec, "run", "vm");
        PairRuns[I].push_back(runSample(P, W.Inputs[P.Input], T));
      }
    }
    {
      ScopedSpan RS(&Rec, "compile round", "round");
      std::vector<const Pair *> Pairs = compileRound(W, Rounds);
      std::map<std::string, double> L;
      double Plain = 0, WallOff = 0, TracedOn = 0;
      for (const Pair *P : Pairs) {
        const std::string &Source = W.Inputs[P->Input].Source;
        lower::PipelineOptions Opts =
            lower::PipelineOptions::forVariant(P->Variant);
        ScopedSpan PS(&Rec, pairName(W, *P), "pair");
        // The plain compile is the reference for trace_overhead_frac; its
        // traced twin has verification on, as in production. Which of the
        // two goes first alternates, so neither always finds warm caches.
        ObservedCompile On;
        for (int Turn = 0; Turn != 2; ++Turn) {
          if ((Turn + Rounds) % 2 == 0) {
            ScopedSpan US(&Rec, "untraced", "pipeline");
            auto T0 = Clock::now();
            compileOnce(Source, Opts);
            Plain += secondsBetween(T0, Clock::now());
          } else {
            ScopedSpan VS(&Rec, "verify-on", "pipeline");
            On = observedCompile(Source, Opts, &Rec, false);
          }
        }
        Opts.VerifyEach = false;
        ObservedCompile Off = observedCompile(Source, Opts, &Rec, false);
        timeFrontendLayers(Source, Opts, &Rec, L);
        const PairCounts &Want = Expected[P];
        T.check(On.OK && Off.OK && Off.Ops == Want.Ops &&
                    On.Stats == Want.Stats && Off.Stats == Want.Stats,
                pairName(W, *P) + ": IR sizes or pass counters changed");
        for (const auto &[Layer, Sec] : Off.Layers)
          L[Layer] += Sec;
        L["lambda.parse_s"] += Off.Parse;
        L["ir.teardown_s"] += Off.Teardown;
        L["ir.verify_s"] += On.Wall - Off.Wall;
        WallOff += Off.Wall;
        TracedOn += On.WallWithObserver;
      }
      double Covered = 0;
      for (const char *Name : LayerTimes)
        Covered += L[Name];
      for (const char *Name : LayerTimes)
        LayerRounds[Name].push_back(L[Name]);
      LayerRounds["ir.verify_s"].push_back(L["ir.verify_s"]);
      Unattributed.push_back((WallOff - Covered) / WallOff);
      Overhead.push_back(TracedOn / Plain - 1);
    }
    double Elapsed = secondsBetween(Start, Clock::now());
    if ((Elapsed >= Seconds && Rounds >= 20) || Elapsed >= HardStop)
      break;
  }
  Rec.end(WorkloadSpan);

  for (const char *Name : LayerTimes)
    M.add(Name, median(LayerRounds[Name]), "s");
  M.add("ir.verify_s", median(LayerRounds["ir.verify_s"]), "s");
  M.add("compile.unattributed_frac", median(Unattributed), "ratio");
  M.add("trace_overhead_frac", median(Overhead), "ratio");
  for (size_t I = 0; I != std::size(IRPhases); ++I)
    M.add(std::string("ir.ops.after_") + IRPhases[I],
          static_cast<double>(OpsTotals[I]), "count");
  for (const char *Name : PassCounters)
    M.add(Name, static_cast<double>(StatTotals[Name]), "count");

  // Run-side metrics per variant, and one row per (program, variant).
  std::map<std::string, double> RunMedian; // "<program>.<variant>"
  std::map<PipelineVariant, double> RunSum;
  for (size_t I = 0; I != W.RunPairs.size(); ++I) {
    const Pair &P = W.RunPairs[I];
    double Med = median(PairRuns[I]);
    RunMedian[W.Inputs[P.Input].Name + "." +
              lower::pipelineVariantName(P.Variant)] = Med;
    RunSum[P.Variant] += Med;
  }
  for (PipelineVariant V : {PipelineVariant::Full, PipelineVariant::Leanc}) {
    std::string Sfx = std::string(".") + lower::pipelineVariantName(V);
    const RunCounts &C = RunTotals[V];
    double Steps = static_cast<double>(C.Steps);
    M.add("vm.steps" + Sfx, Steps, "count");
    M.add("vm.ns_per_step" + Sfx, Steps ? RunSum[V] * 1e9 / Steps : 0, "ns");
    for (const char *Class : OpClasses) {
      auto It = C.OpClass.find(Class);
      double N = It == C.OpClass.end() ? 0 : static_cast<double>(It->second);
      M.add(std::string("vm.op.") + Class + "_frac" + Sfx, Steps ? N / Steps : 0,
            "ratio");
    }
    M.add("vm.closure_allocs" + Sfx, static_cast<double>(C.ClosureAllocs),
          "count");
    M.add("vm.generic_applies" + Sfx, static_cast<double>(C.GenericApplies),
          "count");
    M.add("rt.allocs" + Sfx, static_cast<double>(C.Allocs), "count");
    M.add("rt.incs" + Sfx, static_cast<double>(C.Incs), "count");
    M.add("rt.decs" + Sfx, static_cast<double>(C.Decs), "count");
  }
  for (const std::string &Name : runProgramNames())
    for (const char *V : {"full", "leanc"}) {
      auto It = RunMedian.find(Name + "." + V);
      M.add("run_s." + Name + "." + V, It == RunMedian.end() ? 0 : It->second,
            "s");
    }

  std::string Base = OutDir + "/trace_" + W.Name + "_" + std::to_string(W.Seed);
  if (!Rec.write(Base + ".json", Base + "_self.txt", Provenance))
    T.check(false, "cannot write the trace under " + OutDir);
  std::printf("trace: %s.json (%zu spans, %zu dropped), self time in "
              "%s_self.txt; traced rounds: %llu\n",
              Base.c_str(), Rec.size(), Rec.dropped(), Base.c_str(),
              static_cast<unsigned long long>(Rounds + 1));
}
