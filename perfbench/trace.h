//===- trace.h - in-memory spans of the traced benchmark run ----*- C++ -*-===//
//
// Part of the lambda-ssa project, reproducing "Lambda the Ultimate SSA"
// (CGO 2022). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded from the benchmark's own files around calls into each
/// layer. They stay in memory and are written once, at exit, as Chrome
/// trace_event JSON (chrome://tracing, Perfetto) plus a self-time table.
/// Self time is a span's duration minus its children's.
///
//===----------------------------------------------------------------------===//

#ifndef LZBENCH_TRACE_H
#define LZBENCH_TRACE_H

#include "bench.h"

#include <string>
#include <vector>

namespace lzbench {

class SpanRecorder {
public:
  /// Spans past this many are counted but not kept, so a long traced run
  /// cannot exhaust memory.
  static constexpr size_t MaxSpans = 120'000;

  SpanRecorder() : Epoch(Clock::now()) {}

  /// Opens a span now; returns its id (or -1 when past the cap).
  int begin(std::string Name, const char *Category);
  void end(int Id);
  /// Records a closed span with known bounds under the open span.
  void add(std::string Name, const char *Category, Clock::time_point Begin,
           Clock::time_point End);

  /// Writes trace_event JSON to \p Path with \p Provenance (a JSON object)
  /// as metadata, and the self-time table to \p TablePath.
  bool write(const std::string &Path, const std::string &TablePath,
             const std::string &Provenance) const;

  size_t size() const { return Spans.size(); }
  size_t dropped() const { return Dropped; }

private:
  struct Span {
    std::string Name;
    const char *Category;
    double BeginUs, EndUs;
    int Parent;
  };
  double toUs(Clock::time_point T) const {
    return std::chrono::duration<double, std::micro>(T - Epoch).count();
  }

  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int> Open;
  size_t Dropped = 0;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *R, std::string Name, const char *Category)
      : R(R), Id(R ? R->begin(std::move(Name), Category) : -1) {}
  ~ScopedSpan() {
    if (R)
      R->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder *R;
  int Id;
};

} // namespace lzbench

#endif // LZBENCH_TRACE_H
