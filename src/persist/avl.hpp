// Persistent AVL tree.
//
// Demonstrates that the universal construction is agnostic to the
// sequential structure underneath: any path-copying tree plugs in. AVL
// gives worst-case O(log N) height (the treap's bound is probabilistic),
// at the price of rotations on the copied path — each rotation copies one
// extra node, which the structure ablation (E8) quantifies.
//
// Height- and size-augmented. Everything but the balance predicate comes
// from the join-tree core (persist/join_tree.hpp): the read queries and
// sweeps from JoinTree, the rotation-based insert/erase/join from
// RotationTree, shared with the weight-balanced tree.
//
// Supports the sorted-batch protocol (persist/batch.hpp): unlike the
// treap, whose canonical shape lets the batch recursion be driven by op
// priorities, the AVL sweep is driven by the existing tree — ops are
// partitioned around each node's key — and arbitrary height changes from
// landing ops are repaired by a path-copying join (Blelloch et al.'s
// "just join" recursion), so the result is a valid AVL tree whose
// *contents* (not shape — AVL is history-dependent) match per-op
// application.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "persist/join_tree.hpp"

namespace pathcopy::persist {

template <class K, class V>
struct AvlNode : core::PNode {
  std::uint32_t height;  // shares PNode's state word
  K key;
  V value;
  std::uint64_t size;
  const AvlNode* left;
  const AvlNode* right;

  static std::uint32_t height_of(const AvlNode* n) noexcept {
    return n == nullptr ? 0 : n->height;
  }

  AvlNode(const K& k, const V& v, const AvlNode* l, const AvlNode* r)
      : height(1 + std::max(height_of(l), height_of(r))), key(k), value(v),
        size(1 + subtree_size(l) + subtree_size(r)), left(l), right(r) {}
};

template <class K, class V, class Cmp = std::less<K>>
class AvlTree
    : public RotationTree<AvlTree<K, V, Cmp>, K, V, Cmp, AvlNode<K, V>> {
  using Base = RotationTree<AvlTree, K, V, Cmp, AvlNode<K, V>>;
  friend Base;
  friend typename Base::JoinTree;

 public:
  using typename Base::Node;

 private:
  // Balance predicate: sibling heights differ by at most one.
  static bool heavy(const Node* a, const Node* b) noexcept {
    return Node::height_of(a) > Node::height_of(b) + 1;
  }
  static bool single(const Node* outer, const Node* inner) noexcept {
    return Node::height_of(outer) >= Node::height_of(inner);
  }

  static std::size_t check_node(const Node* n, std::size_t lh,
                                std::size_t rh) {
    const std::size_t h = 1 + std::max(lh, rh);
    const bool balanced = (lh > rh ? lh - rh : rh - lh) <= 1;
    return balanced && h == n->height ? h : Base::kBroken;
  }
};

}  // namespace pathcopy::persist
