#pragma once
// gs_setup: the discovery phase of the gather-scatter library.
//
// From the paper (§VI): "spectral element coefficients are stored
// redundantly (and locally) on each processor ... and each processor is
// given index sets containing the global ids of the elements using
// gs_setup. This requires a discovery phase using all-to-all communication
// to identify for every global index i on processes p, all the processes q
// that also have i."
//
// Implementation: ids hash to a "home" rank, the non-negative remainder of
// id mod P; every rank ships its distinct ids to their homes (alltoallv);
// each home collates the sharer set of every id it is responsible for,
// assigns a dense index to the shared ones, and replies to every sharer
// with (id, shared index, sharer list). The result is the topology all
// three exchange algorithms are built on.
//
// The local work is sort-and-scan. A stable radix sort of (id, slot) pairs
// gives the distinct ids and each slot's index among them; a counting sort
// by home builds the first message; a stable radix sort of the received
// (id, source) pairs turns each sharer list into a run; and a count-then-
// fill pass builds the reply. Each destination receives its ids, and its
// reply records, in ascending id order, with sharers in ascending rank.

#include <cstdint>
#include <span>
#include <vector>

#include "comm/comm.hpp"

namespace cmtbone::gs {

/// One locally-present global id that at least one other rank also holds.
struct SharedId {
  long long id = 0;
  int unique_index = 0;      // index into the handle's unique-id array
  long long shared_index = 0;  // dense global index among all shared ids
  std::vector<int> sharers;    // other ranks holding this id (sorted, != me)
};

/// Per-rank output of discovery.
struct Topology {
  /// Distinct local ids, ascending. unique_of_slot maps every input slot
  /// (GLL point) to its entry here.
  std::vector<long long> unique_ids;
  std::vector<int> unique_of_slot;

  /// The subset of unique ids that other ranks share, with their sharer
  /// sets. Sorted by id.
  std::vector<SharedId> shared;

  /// Global count of distinct shared ids (dense index space of the shared
  /// entries).
  long long total_shared = 0;

  /// Global count of ALL distinct ids. The allreduce method's "big vector"
  /// spans this whole space — every rank's redundant coefficients — which
  /// is what makes it "too expensive" in the paper's Fig. 7.
  long long total_global = 0;
};

/// Run discovery. Collective over `comm`. `slot_ids` carries one global id
/// per local data slot (repeats allowed — e.g. an edge shared by several
/// local elements).
Topology gs_setup(comm::Comm& comm, std::span<const long long> slot_ids);

}  // namespace cmtbone::gs
