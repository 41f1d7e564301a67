//===- calibrate.cpp - a fixed kernel that measures the box's speed -------===//
//
// Part of the lambda-ssa project, reproducing "Lambda the Ultimate SSA"
// (CGO 2022). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On a shared machine the speed a core delivers changes by tens of percent
/// over seconds and minutes, with the neighbours' load. The timed rounds
/// therefore run this kernel right before and after each timed block and
/// report the block's time relative to it. The kernel uses nothing from
/// src/, so no change to the compiler or the VM moves it; it mixes what
/// the measured code spends its time on: malloc/free and pointer chasing,
/// switch dispatch with data-dependent branches, and string hashing.
///
/// Do not change this file in a change that claims a gain: the reported
/// times are in units of this kernel.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cstdlib>
#include <string>
#include <unordered_map>

using namespace lzbench;

namespace {

struct Cell {
  Cell *Next;
  long Value;
  long RefCount;
};

/// Builds a list, maps it into a fresh one while releasing the old, sums
/// the result and frees it.
long listKernel() {
  constexpr long Length = 6000;
  Cell *List = nullptr;
  for (long I = 0; I != Length; ++I)
    List = new Cell{List, I, 1};
  long Sum = 0;
  for (int Pass = 0; Pass != 4; ++Pass) {
    Cell *Mapped = nullptr;
    while (List) {
      Cell *Next = List->Next;
      Mapped = new Cell{Mapped, List->Value * 3 + Pass, 1};
      if (--List->RefCount == 0)
        delete List;
      List = Next;
    }
    List = Mapped;
  }
  while (List) {
    Cell *Next = List->Next;
    Sum += List->Value;
    delete List;
    List = Next;
  }
  return Sum;
}

/// A register machine over a fixed program, dispatched through a switch.
long dispatchKernel() {
  static const unsigned char Code[] = {0, 1, 2, 3, 4, 1, 5, 2, 0, 3, 6, 4, 7};
  long R[4] = {1, 2, 3, 4};
  for (int Iter = 0; Iter != 60000; ++Iter) {
    for (unsigned PC = 0; PC != sizeof(Code); ++PC) {
      switch (Code[PC]) {
      case 0: R[0] += R[1]; break;
      case 1: R[1] ^= R[0] >> 3; break;
      case 2: R[2] = R[2] * 3 + R[0]; break;
      case 3: if (R[2] & 1) ++R[3]; break;
      case 4: R[0] -= R[3]; break;
      case 5: if ((R[1] & 6) == 2) R[2] += Iter; break;
      case 6: R[3] = (R[3] << 1) | (R[0] & 1); break;
      default: R[1] += R[2] & 255; break;
      }
    }
  }
  return R[0] + R[1] + R[2] + R[3];
}

std::string nameOf(long A, long B) {
  std::string Name = "v";
  Name += std::to_string(A);
  Name += '_';
  Name += std::to_string(B);
  return Name;
}

/// Interns short names into a hash map and looks them up again.
long hashKernel() {
  std::unordered_map<std::string, long> Table;
  long Sum = 0;
  for (int Round = 0; Round != 2; ++Round) {
    for (long I = 0; I != 3000; ++I)
      Table.emplace(nameOf(I % 1500, I * 7 % 13), I);
    for (long I = 0; I != 3000; ++I) {
      auto It = Table.find(nameOf(I, I % 13));
      Sum += It == Table.end() ? 1 : It->second;
    }
    Table.clear();
  }
  return Sum;
}

/// Keeps the kernels' results alive, so that the optimizer cannot drop them.
volatile long Sink;

} // namespace

double lzbench::calibrate() {
  auto T0 = Clock::now();
  Sink = listKernel() + dispatchKernel() + hashKernel();
  return secondsBetween(T0, Clock::now());
}
