//===- trace.cpp - in-memory spans of the traced benchmark run ------------===//
//
// Part of the lambda-ssa project, reproducing "Lambda the Ultimate SSA"
// (CGO 2022). MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace lzbench;

int SpanRecorder::begin(std::string Name, const char *Category) {
  if (Spans.size() >= MaxSpans) {
    ++Dropped;
    return -1;
  }
  double Now = toUs(Clock::now());
  Spans.push_back({std::move(Name), Category, Now, Now,
                   Open.empty() ? -1 : Open.back()});
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void SpanRecorder::end(int Id) {
  if (Id < 0)
    return;
  Spans[Id].EndUs = toUs(Clock::now());
  while (!Open.empty()) {
    int Top = Open.back();
    Open.pop_back();
    if (Top == Id)
      break;
  }
}

void SpanRecorder::add(std::string Name, const char *Category,
                       Clock::time_point Begin, Clock::time_point End) {
  if (Spans.size() >= MaxSpans) {
    ++Dropped;
    return;
  }
  Spans.push_back({std::move(Name), Category, toUs(Begin), toUs(End),
                   Open.empty() ? -1 : Open.back()});
}

namespace {
std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
      continue;
    }
    Out += C;
  }
  return Out + "\"";
}
} // namespace

bool SpanRecorder::write(const std::string &Path, const std::string &TablePath,
                         const std::string &Provenance) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\",\n\"otherData\": %s,\n"
                  "\"droppedSpans\": %zu,\n\"traceEvents\": [\n",
               Provenance.c_str(), Dropped);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\": %s, \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1}",
                 I ? ",\n" : "", jsonString(S.Name).c_str(), S.Category,
                 S.BeginUs, S.EndUs - S.BeginUs);
  }
  std::fprintf(F, "\n]}\n");
  bool OK = std::fclose(F) == 0;

  // Self time: a span's duration minus the durations of its children.
  std::vector<double> ChildUs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildUs[S.Parent] += S.EndUs - S.BeginUs;
  struct Row {
    size_t Count = 0;
    double TotalUs = 0, SelfUs = 0;
  };
  std::map<std::string, Row> Rows;
  for (size_t I = 0; I != Spans.size(); ++I) {
    Row &R = Rows[Spans[I].Name];
    double Dur = Spans[I].EndUs - Spans[I].BeginUs;
    ++R.Count;
    R.TotalUs += Dur;
    R.SelfUs += Dur - ChildUs[I];
  }
  std::vector<std::pair<std::string, Row>> Sorted(Rows.begin(), Rows.end());
  std::stable_sort(Sorted.begin(), Sorted.end(), [](auto &A, auto &B) {
    return A.second.SelfUs > B.second.SelfUs;
  });
  std::FILE *T = std::fopen(TablePath.c_str(), "w");
  if (!T)
    return false;
  std::fprintf(T, "%-44s %10s %14s %14s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto &[Name, R] : Sorted)
    std::fprintf(T, "%-44s %10zu %14.3f %14.3f\n", Name.c_str(), R.Count,
                 R.TotalUs / 1e3, R.SelfUs / 1e3);
  return std::fclose(T) == 0 && OK;
}
