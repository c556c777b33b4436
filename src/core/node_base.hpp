// Base class for all path-copied nodes.
//
// Every persistent node carries one byte of builder state that tracks its
// lifecycle within a single update attempt:
//
//   kPublished  — reachable from a root that was (or may have been)
//                 installed by a successful CAS; immutable forever.
//   kFresh      — allocated by the in-flight attempt; private to it.
//   kFreshDead  — allocated by the in-flight attempt, then superseded by
//                 it (e.g. a split copy that a subsequent merge re-copied);
//                 garbage the moment the attempt ends, win or lose.
//
// The byte is the node's first, and PNode's only, member: a derived node
// declares its small balancing metadata (height, colour, a 32-bit size)
// first, so it shares the byte's word instead of padding one of its own.
//
// Thread-safety: the byte is only ever written while the node is private
// to one thread (between allocation and the root CAS that publishes it).
// Other threads can reach the node only through an acquire load of a root
// installed by a release CAS that happened after the byte was finalized to
// kPublished, so cross-thread reads are data-race free without atomics.
#pragma once

#include <cstdint>

namespace pathcopy::core {

enum class NodeState : std::uint8_t {
  kPublished = 0,
  kFresh = 1,
  kFreshDead = 2,
};

struct PNode {
  mutable NodeState pc_state_ = NodeState::kFresh;
};

}  // namespace pathcopy::core
