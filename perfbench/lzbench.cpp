//===- lzbench.cpp - the repository benchmark's entry point ---------------===//
//
// Part of the lambda-ssa project, reproducing "Lambda the Ultimate SSA"
// (CGO 2022). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   lzbench --workload NAME --seed N --seconds S --trace 0|1
///           --refs FILE --out DIR
///   lzbench --check-references FILE | --write-references FILE
///
/// Prints provenance and sample counts, then as its last line one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
/// the end-to-end metrics, --trace 1 the per-layer ones. perfbench/run.py
/// builds this binary and is the command to run.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "vm/VM.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace lzbench;

namespace {

std::string provenance() {
#ifdef NDEBUG
  const char *NDebug = "true";
#else
  const char *NDebug = "false";
#endif
  long NProc = sysconf(_SC_NPROCESSORS_ONLN);
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"ndebug\": %s, \"build_type\": \"%s\", \"compiler\": "
                "\"%s\", \"vm_dispatch\": \"%s\", \"nproc\": %ld}",
                NDebug, LZBENCH_BUILD_TYPE, LZBENCH_CXX_COMPILER,
                lz::vm::VM::dispatchModeName(lz::vm::VM::defaultDispatchMode()),
                NProc);
  return Buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: lzbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --refs FILE --out DIR\n"
               "       lzbench --check-references FILE | "
               "--write-references FILE\n");
  return 2;
}

void printNumber(double V) {
  if (V == std::floor(V) && std::fabs(V) < 9e15)
    std::printf("%.0f", V);
  else
    std::printf("%.17g", V);
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName, RefsPath, OutDir = ".";
  uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 == argc)
      return usage();
    std::string Val = argv[++I];
    if (Arg == "--workload")
      WorkloadName = Val;
    else if (Arg == "--seed")
      Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      Seconds = std::atof(Val.c_str());
    else if (Arg == "--trace")
      Trace = std::atoi(Val.c_str());
    else if (Arg == "--refs")
      RefsPath = Val;
    else if (Arg == "--out")
      OutDir = Val;
    else if (Arg == "--check-references" || Arg == "--write-references")
      return checkReferences(Val, Arg == "--write-references") ? 0 : 1;
    else
      return usage();
  }
  if (WorkloadName.empty() || RefsPath.empty() || Seconds <= 0 ||
      (Trace != 0 && Trace != 1))
    return usage();

  std::string Prov = provenance();
  std::printf("provenance: %s\n", Prov.c_str());
#ifndef NDEBUG
  std::fprintf(stderr, "lzbench: refusing to measure an assert-enabled "
                       "build; configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif

  ReferenceTable Refs;
  std::string Error;
  if (!readReferences(RefsPath, Refs, Error)) {
    std::fprintf(stderr, "lzbench: %s\n", Error.c_str());
    return 2;
  }

  Tally T;
  Workload W;
  if (!makeWorkload(WorkloadName, Seed, Refs, W, T)) {
    std::fprintf(stderr, "lzbench: unknown workload '%s'\n",
                 WorkloadName.c_str());
    return 2;
  }
  Metrics M;
  if (Trace == 0) {
    runEndToEnd(W, Refs, Seconds, M, T);
    rusage Usage;
    getrusage(RUSAGE_SELF, &Usage);
    M.add("peak_rss_mb", static_cast<double>(Usage.ru_maxrss) / 1024.0, "MB");
  } else {
    setUp(W, Refs, T);
    runTraced(W, Seconds, OutDir, Prov, M, T);
    M.add("failed_frac",
          T.Attempted ? static_cast<double>(T.Failed) / T.Attempted : 0,
          "ratio");
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              T.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed));
  for (size_t I = 0; I != M.Rows.size(); ++I) {
    std::printf("%s\"%s\": {\"value\": ", I ? ", " : "",
                M.Rows[I].first.c_str());
    printNumber(M.Rows[I].second.first);
    std::printf(", \"unit\": \"%s\"}", M.Rows[I].second.second.c_str());
  }
  std::printf("}}\n");
  return 0;
}
