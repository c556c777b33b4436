// Persistent weight-balanced tree (BB[alpha] / bounded-balance tree).
//
// The balancing scheme behind the classic functional-language ordered
// maps (Adams' trees, Haskell's Data.Map): each node keeps its subtree
// weight w = size + 1, and the invariant w(sibling) <= Delta * w(other)
// is restored by single/double rotations chosen by the Gamma criterion.
// Parameters <Delta=3, Gamma=2> are the integer pair proven correct by
// Hirai & Yamamoto (JFP 2011).
//
// Compared to the AVL tree this needs no height field (the size field
// that the rank/select API wants anyway doubles as the balance metric),
// and rotations are rarer for insert-heavy workloads — another data point
// for the structure ablation. Everything but the weight predicate comes
// from the join-tree core (persist/join_tree.hpp), shared with the AVL
// tree through RotationTree.
//
// Supports the sorted-batch protocol (persist/batch.hpp) like the AVL
// tree: the sweep is driven by the existing tree — ops are partitioned
// around each node's key — and arbitrary weight changes from landing ops
// are repaired by a path-copying join (Adams' `link` recursion, the one
// behind Haskell's Data.Map, with the same <Delta, Gamma> = <3, 2>
// criterion as the point updates), so the result is a valid BB[alpha]
// tree whose contents match per-op application.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "persist/join_tree.hpp"

namespace pathcopy::persist {

template <class K, class V>
struct WbNode : core::PNode {
  K key;
  V value;
  std::uint64_t size;
  const WbNode* left;
  const WbNode* right;

  WbNode(const K& k, const V& v, const WbNode* l, const WbNode* r)
      : key(k), value(v), size(1 + subtree_size(l) + subtree_size(r)),
        left(l), right(r) {}
};

template <class K, class V, class Cmp = std::less<K>>
class WbTree : public RotationTree<WbTree<K, V, Cmp>, K, V, Cmp, WbNode<K, V>> {
  using Base = RotationTree<WbTree, K, V, Cmp, WbNode<K, V>>;
  friend Base;
  friend typename Base::JoinTree;

 public:
  using typename Base::Node;

  static constexpr std::uint64_t kDelta = 3;  // sibling weight ratio bound
  static constexpr std::uint64_t kGamma = 2;  // single-vs-double rotation

 private:
  // Weight: size + 1, so empty subtrees participate in the ratio test.
  static std::uint64_t weight(const Node* n) noexcept {
    return subtree_size(n) + 1;
  }

  // Balance predicate: w(a) <= Delta * w(b) for siblings a, b; a heavy
  // side rotates once unless its inner grandchild is too heavy (Gamma).
  static bool heavy(const Node* a, const Node* b) noexcept {
    return weight(a) > kDelta * weight(b);
  }
  static bool single(const Node* outer, const Node* inner) noexcept {
    return weight(inner) < kGamma * weight(outer);
  }

  static std::size_t check_node(const Node* n, std::size_t, std::size_t) {
    const std::uint64_t wl = weight(n->left);
    const std::uint64_t wr = weight(n->right);
    return wl > kDelta * wr || wr > kDelta * wl ? Base::kBroken : 0;
  }
};

}  // namespace pathcopy::persist
