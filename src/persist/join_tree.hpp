// One generic core for the path-copying binary search trees.
//
// The universal construction asks only that the sequential structure
// path-copy; which balancing scheme keeps it shallow is a detail. Following
// "Just Join for Parallel Ordered Sets" (Blelloch, Ferizovic & Sun, SPAA
// 2016), JoinTree owns every part of a binary search tree that does not
// depend on balancing: the handle, every read query, the sorted read and
// write sweeps, bulk construction, the invariant-check frame, and the
// sharing and teardown utilities. A balancing scheme is a class deriving
// from JoinTree<Scheme, K, V, Cmp, Node> (CRTP; Treap, AvlTree, WbTree and
// RbTree are the four) and supplies:
//
//   Node                 derives core::PNode and has members key, value,
//                        size (keys in the subtree, set by its constructor
//                        through subtree_size), left and right. Metadata of
//                        at most 32 bits (the treap's size, the AVL
//                        height, the red-black colour) is declared first,
//                        so it lands in the word PNode's state byte
//                        starts: an <int64_t, int64_t> node is then 48 B,
//                        exactly a pool class (tests/test_ordered_api.cpp
//                        guards both). The treap's 64-bit priority follows
//                        value.
//   remake(b, n, v, l, r)
//                        node constructor for a path copy: n's key, value
//                        v, children l and r, and n's metadata (or
//                        metadata recomputed from l and r). Used by the
//                        generic insert_or_assign.
//   build(b, k, v, l, r, bottom)
//                        node constructor for a fresh key in a
//                        midpoint-built tree (from_sorted, batch tail);
//                        bottom marks the last level of a tree taller
//                        than one node.
//   join(b, k, v, l, r)  a valid tree holding l < k < r, for valid trees l
//                        and r of any sizes: the keyed relink of the batch
//                        sweep.
//   pop_min(b, n)        {min key, its value, n without it}: the pivot
//                        that join2 (join without a middle key) joins on.
//   check_node(n, lrank, rrank)
//                        per-node invariant predicate. The frame has
//                        already checked key order, published state and
//                        the size field; lrank and rrank are what the
//                        predicate returned for the children (0 for an
//                        empty child). Returns n's own rank (height, black
//                        height, or 0 when the scheme needs none) or
//                        kBroken.
//   insert(b, k, v), erase(b, k)
//                        set-style point updates: when nothing changes
//                        they return the same version (same root pointer)
//                        and allocate nothing.
//
// Hooks are private to the scheme, which befriends its base. A scheme may
// also override a generic algorithm where its own really differs: the
// treap's canonical shape lets it place every key by priority, so it keeps
// its priority-driven apply_sorted_batch and cartesian-tree from_sorted
// (and so needs no join, build or pop_min); the red-black tree keeps
// Okasaki's single-pass insert_or_assign (and so needs no remake),
// re-blackens the root after the sweep, and also demands a black root in
// check_invariants.
//
// AvlTree and WbTree share one rotation-based scheme, RotationTree below,
// and differ only in their balance predicate.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/node_base.hpp"
#include "persist/batch.hpp"
#include "util/assert.hpp"
#include "util/small_vec.hpp"

namespace pathcopy::persist {

/// Keys in the subtree rooted at n (0 for the empty tree).
template <class Node>
std::uint64_t subtree_size(const Node* n) noexcept {
  return n == nullptr ? 0 : n->size;
}

template <class Tree, class K, class V, class Cmp, class NodeT>
class JoinTree {
 public:
  using KeyType = K;
  using ValueType = V;
  using KeyCompare = Cmp;
  using Node = NodeT;
  using BatchOp = persist::BatchOp<K, V>;
  using BatchOpKind = persist::BatchOpKind;
  using BatchOutcome = persist::BatchOutcome;
  using ReadOutcome = persist::ReadOutcome<V>;

  /// Rebinds a handle to a root loaded from an Atom (type-erased there).
  static Tree from_root(const void* root) noexcept {
    return wrap(static_cast<const Node*>(root));
  }
  const void* root_ptr() const noexcept { return root_; }
  const Node* root_node() const noexcept { return root_; }

  std::size_t size() const noexcept { return subtree_size(root_); }
  bool empty() const noexcept { return root_ == nullptr; }

  // ----- queries (no builder, run on the immutable version) -----

  const V* find(const K& key) const {
    const Node* n = root_;
    Cmp cmp;
    while (n != nullptr) {
      if (cmp(key, n->key)) {
        n = n->left;
      } else if (cmp(n->key, key)) {
        n = n->right;
      } else {
        return &n->value;
      }
    }
    return nullptr;
  }

  bool contains(const K& key) const { return find(key) != nullptr; }

  const Node* min_node() const {
    const Node* n = root_;
    while (n != nullptr && n->left != nullptr) n = n->left;
    return n;
  }

  const Node* max_node() const {
    const Node* n = root_;
    while (n != nullptr && n->right != nullptr) n = n->right;
    return n;
  }

  /// Largest key <= key, or nullptr.
  const Node* floor_node(const K& key) const {
    const Node* n = root_;
    const Node* best = nullptr;
    Cmp cmp;
    while (n != nullptr) {
      if (cmp(key, n->key)) {
        n = n->left;
      } else {
        best = n;  // n->key <= key
        n = n->right;
      }
    }
    return best;
  }

  /// Smallest key >= key, or nullptr.
  const Node* ceiling_node(const K& key) const {
    const Node* n = root_;
    const Node* best = nullptr;
    Cmp cmp;
    while (n != nullptr) {
      if (cmp(n->key, key)) {
        n = n->right;
      } else {
        best = n;  // n->key >= key
        n = n->left;
      }
    }
    return best;
  }

  /// Number of keys strictly less than key.
  std::size_t rank(const K& key) const {
    std::size_t r = 0;
    const Node* n = root_;
    Cmp cmp;
    while (n != nullptr) {
      if (cmp(n->key, key)) {
        r += 1 + subtree_size(n->left);
        n = n->right;
      } else {
        n = n->left;
      }
    }
    return r;
  }

  /// The i-th smallest key (0-based); nullptr when i >= size().
  const Node* kth(std::size_t i) const {
    const Node* n = root_;
    while (n != nullptr) {
      const std::size_t ls = subtree_size(n->left);
      if (i < ls) {
        n = n->left;
      } else if (i == ls) {
        return n;
      } else {
        i -= ls + 1;
        n = n->right;
      }
    }
    return nullptr;
  }

  /// Keys in the half-open interval [lo, hi).
  std::size_t count_range(const K& lo, const K& hi) const {
    const std::size_t a = rank(lo);
    const std::size_t b = rank(hi);
    return b > a ? b - a : 0;
  }

  /// In-order visit of (key, value).
  template <class F>
  void for_each(F&& f) const {
    for_each_rec(root_, f);
  }

  /// In-order visit restricted to [lo, hi): subtrees wholly outside the
  /// interval are pruned at their root, so the visit costs O(hits + log n)
  /// — what makes tablet extraction proportional to the moved slice.
  template <class F>
  void for_each_range(const K& lo, const K& hi, F&& f) const {
    for_each_range_rec(root_, lo, hi, f);
  }

  /// Resolves a key-sorted, key-unique probe batch against this snapshot
  /// in one descent-sharing sweep: out[i] answers keys[i]. Read-only —
  /// zero allocation, no builder — and returns the exact shared-vs-per-key
  /// node accounting (see ReadProbeStats).
  ReadProbeStats get_sorted_batch(std::span<const K> keys,
                                  std::span<ReadOutcome> out) const {
    PC_ASSERT(out.size() >= keys.size(),
              "get_sorted_batch outcome span too small");
    check_sorted_keys<Cmp, K>(keys);
    ReadProbeStats stats;
    detail::read_batch_rec<Cmp, Node, K, V>(root_, keys, out, 0, keys.size(),
                                            stats);
    return stats;
  }

  /// Bounded range scan: appends up to `limit` (key, value) pairs from
  /// [lo, hi) in key order onto `out`; returns the number emitted. Early
  /// exit makes a limit-k scan O(k + log n) regardless of range width.
  std::size_t scan(const K& lo, const K& hi, std::size_t limit,
                   std::vector<std::pair<K, V>>& out) const {
    std::size_t remaining = limit;
    detail::scan_range_rec<Cmp, Node, K, V>(root_, lo, hi, remaining, out);
    return limit - remaining;
  }

  std::vector<std::pair<K, V>> items() const {
    std::vector<std::pair<K, V>> out;
    out.reserve(size());
    for_each([&](const K& k, const V& v) { out.emplace_back(k, v); });
    return out;
  }

  /// Collects the addresses of nodes on the search path to key (used by
  /// the cache-model instrumentation and sharing experiments).
  std::vector<const Node*> path_to(const K& key) const {
    std::vector<const Node*> path;
    const Node* n = root_;
    Cmp cmp;
    while (n != nullptr) {
      path.push_back(n);
      if (cmp(key, n->key)) {
        n = n->left;
      } else if (cmp(n->key, key)) {
        n = n->right;
      } else {
        break;
      }
    }
    return path;
  }

  // ----- updates (path copying; *this is unchanged) -----

  /// Map-style insert: overwrites the value when the key is present
  /// (always produces a new version in that case).
  template <class B>
  Tree insert_or_assign(B& b, const K& key, const V& value) const {
    if (contains(key)) return wrap(assign_rec(b, root_, key, value));
    return self().insert(b, key, value);
  }

  /// O(n) bulk construction from strictly increasing (key, value) pairs.
  /// The midpoint build yields a perfectly size-balanced tree (subtree
  /// sizes differ by at most 1 at every node, every level but the last is
  /// full), which satisfies every scheme's invariant by construction.
  template <class B, class It>
  static Tree from_sorted(B& b, It first, It last) {
    std::vector<std::pair<K, V>> items(first, last);
    check_sorted_items<Cmp>(items);
    return wrap(build_mid(
        b, [&](std::size_t i) -> const std::pair<K, V>& { return items[i]; },
        0, items.size(), 1, std::bit_width(items.size())));
  }

  /// Applies a key-sorted, key-unique op batch in one path-copying sweep
  /// and reports a per-op outcome (aligned with `ops`). Contents are
  /// exactly those of applying the ops one at a time; the whole batch
  /// shares one copied spine — untouched subtrees are returned by pointer
  /// (an all-noop batch returns the same root with zero allocations) and
  /// subtrees reshaped by landing ops are stitched back with the scheme's
  /// join instead of one root-to-leaf copy per op.
  template <class B>
  Tree apply_sorted_batch(B& b, std::span<const BatchOp> ops,
                          std::span<BatchOutcome> outcomes) const {
    PC_ASSERT(outcomes.size() >= ops.size(),
              "apply_sorted_batch outcome span too small");
    if (ops.empty()) return self();
    check_sorted_batch<Cmp>(ops);
    return wrap(detail::apply_batch_rec<Sweep>(b, root_, ops, outcomes, 0,
                                               ops.size()));
  }

  // ----- structural utilities -----

  /// Full invariant check: BST order, size augmentation, published state
  /// and the scheme's own predicate on every node. O(n).
  bool check_invariants() const {
    return check_rec(root_, nullptr, nullptr).ok;
  }

  std::size_t height() const { return height_rec(root_); }

  /// Number of nodes reachable from both versions — quantifies the
  /// structural sharing that drives the paper's cache argument (Fig. 1).
  static std::size_t shared_nodes(const Tree& a, const Tree& b) {
    std::unordered_set<const Node*> seen;
    collect(a.root_, seen);
    std::size_t shared = 0;
    count_shared(b.root_, seen, shared);
    return shared;
  }

  /// Teardown-only: frees every node of this version through the
  /// allocator backend. Caller guarantees exclusive ownership (i.e. all
  /// other versions have already been reclaimed).
  template <class Backend>
  static void destroy(const Node* n, Backend& backend) {
    if (n == nullptr) return;
    destroy(n->left, backend);
    destroy(n->right, backend);
    n->~Node();
    backend.free_bytes(const_cast<Node*>(n), sizeof(Node), alignof(Node));
  }

 protected:
  /// check_node's verdict for a node that breaks the scheme's invariant.
  static constexpr std::size_t kBroken = static_cast<std::size_t>(-1);

  /// Inline scratch capacity for batch application; combiner batches are
  /// at most 2x the announcement-slot count, so this avoids per-install
  /// heap traffic in the common case.
  static constexpr std::size_t kInlineBatch = 128;
  using LandVec = util::SmallVec<std::size_t, kInlineBatch>;

  static Tree wrap(const Node* root) noexcept {
    Tree t;
    t.root_ = root;
    return t;
  }
  const Tree& self() const noexcept { return static_cast<const Tree&>(*this); }

  /// Batch tail that ran off the tree: erases are no-ops, the surviving
  /// inserts/assigns land as fresh keys; their indices go to `land`.
  static void collect_landing(std::span<const BatchOp> ops,
                              std::span<BatchOutcome> out, std::size_t lo,
                              std::size_t hi, LandVec& land) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (ops[i].kind == BatchOpKind::kErase) {
        out[i] = BatchOutcome::kNoop;
      } else {
        out[i] = BatchOutcome::kInserted;
        land.push_back(i);
      }
    }
  }

  /// A landing op viewed as the (key, value) item that from_sorted takes.
  static std::pair<const K&, const V&> landed(const BatchOp& op) {
    return {op.key, *op.value};
  }

  const Node* root_ = nullptr;

 private:
  /// Policy for the tree-driven sorted-batch sweep (persist/batch.hpp):
  /// the partition recursion lives there, the relink is the scheme's join.
  struct Sweep {
    using Node = NodeT;
    using KeyCompare = Cmp;
    template <class B>
    static const Node* join(B& b, const K& k, const V& v, const Node* l,
                            const Node* r) {
      return Tree::join(b, k, v, l, r);
    }
    /// Joins l < r without a middle key (the batch erased it). Either
    /// side empty: the other is already a valid tree. Otherwise r's
    /// minimum is popped and becomes the pivot.
    template <class B>
    static const Node* join2(B& b, const Node* l, const Node* r) {
      if (r == nullptr) return l;
      if (l == nullptr) return r;
      auto [k, v, rest] = Tree::pop_min(b, r);
      return Tree::join(b, k, v, l, rest);
    }
    template <class B>
    static const Node* build_inserts(B& b, std::span<const BatchOp> ops,
                                     std::span<BatchOutcome> out,
                                     std::size_t lo, std::size_t hi) {
      LandVec land;
      collect_landing(ops, out, lo, hi, land);
      return build_mid(
          b, [&](std::size_t i) { return landed(ops[land[i]]); }, 0,
          land.size(), 1, std::bit_width(land.size()));
    }
  };

  /// Path copy to key (present) with its value replaced; shape and
  /// metadata are kept, so no rebalancing is needed.
  template <class B>
  static const Node* assign_rec(B& b, const Node* n, const K& key,
                                const V& value) {
    PC_DASSERT(n != nullptr, "assign_rec past a leaf");
    Cmp cmp;
    b.supersede(n);
    if (cmp(key, n->key)) {
      return Tree::remake(b, n, n->value, assign_rec(b, n->left, key, value),
                          n->right);
    }
    if (cmp(n->key, key)) {
      return Tree::remake(b, n, n->value, n->left,
                          assign_rec(b, n->right, key, value));
    }
    return Tree::remake(b, n, value, n->left, n->right);
  }

  /// Midpoint build over items [lo, hi) of a key-ordered sequence (item(i)
  /// yields a (key, value) pair) at the given depth of a tree with
  /// `levels` levels.
  template <class B, class Item>
  static const Node* build_mid(B& b, const Item& item, std::size_t lo,
                               std::size_t hi, std::size_t depth,
                               std::size_t levels) {
    if (lo == hi) return nullptr;
    const std::size_t mid = lo + (hi - lo) / 2;
    const Node* l = build_mid(b, item, lo, mid, depth + 1, levels);
    const Node* r = build_mid(b, item, mid + 1, hi, depth + 1, levels);
    const auto& [k, v] = item(mid);
    return Tree::build(b, k, v, l, r, depth == levels && levels > 1);
  }

  template <class F>
  static void for_each_rec(const Node* n, F& f) {
    if (n == nullptr) return;
    for_each_rec(n->left, f);
    f(n->key, n->value);
    for_each_rec(n->right, f);
  }

  template <class F>
  static void for_each_range_rec(const Node* n, const K& lo, const K& hi,
                                 F& f) {
    if (n == nullptr) return;
    Cmp cmp;
    if (cmp(n->key, lo)) {  // entire left subtree < lo as well
      for_each_range_rec(n->right, lo, hi, f);
      return;
    }
    if (!cmp(n->key, hi)) {  // n->key >= hi
      for_each_range_rec(n->left, lo, hi, f);
      return;
    }
    for_each_range_rec(n->left, lo, hi, f);
    f(n->key, n->value);
    for_each_range_rec(n->right, lo, hi, f);
  }

  struct CheckResult {
    bool ok;
    std::uint64_t size;
    std::size_t rank;
  };

  static CheckResult check_rec(const Node* n, const K* lo, const K* hi) {
    if (n == nullptr) return {true, 0, 0};
    Cmp cmp;
    if (lo != nullptr && !cmp(*lo, n->key)) return {false, 0, 0};
    if (hi != nullptr && !cmp(n->key, *hi)) return {false, 0, 0};
    if (n->pc_state_ != core::NodeState::kPublished) return {false, 0, 0};
    const CheckResult l = check_rec(n->left, lo, &n->key);
    if (!l.ok) return l;
    const CheckResult r = check_rec(n->right, &n->key, hi);
    if (!r.ok) return r;
    const std::uint64_t sz = 1 + l.size + r.size;
    const std::size_t rank = Tree::check_node(n, l.rank, r.rank);
    return {sz == n->size && rank != kBroken, sz, rank};
  }

  static std::size_t height_rec(const Node* n) {
    if (n == nullptr) return 0;
    return 1 + std::max(height_rec(n->left), height_rec(n->right));
  }

  static void collect(const Node* n, std::unordered_set<const Node*>& out) {
    if (n == nullptr) return;
    out.insert(n);
    collect(n->left, out);
    collect(n->right, out);
  }

  static void count_shared(const Node* n,
                           const std::unordered_set<const Node*>& in,
                           std::size_t& shared) {
    if (n == nullptr) return;
    if (in.contains(n)) {
      // Everything below a shared node is shared as well (nodes are
      // immutable, so a shared parent implies shared children).
      shared += n->size;
      return;
    }
    count_shared(n->left, in, shared);
    count_shared(n->right, in, shared);
  }
};

/// The rotation-balanced schemes (AVL, weight-balanced): one path-copying
/// insert/erase/pop_min/join over a node constructor Node(k, v, l, r).
/// Tree supplies the balance predicate as two tests on sibling subtrees:
///   heavy(a, b)           a is too big beside its sibling b;
///   single(outer, inner)  a heavy child whose outer and inner children
///                         these are is fixed by one rotation (else two).
/// Erase pulls up the in-order successor.
template <class Tree, class K, class V, class Cmp, class NodeT>
class RotationTree : public JoinTree<Tree, K, V, Cmp, NodeT> {
  using Base = JoinTree<Tree, K, V, Cmp, NodeT>;
  friend Base;

 public:
  using Node = NodeT;

  template <class B>
  Tree insert(B& b, const K& key, const V& value) const {
    if (this->contains(key)) return this->self();
    return Base::wrap(insert_rec(b, this->root_, key, value));
  }

  template <class B>
  Tree erase(B& b, const K& key) const {
    if (!this->contains(key)) return this->self();
    return Base::wrap(erase_rec(b, this->root_, key));
  }

 private:
  template <class B>
  static const Node* mk(B& b, const K& k, const V& v, const Node* l,
                        const Node* r) {
    return b.template create<Node>(k, v, l, r);
  }

  template <class B>
  static const Node* remake(B& b, const Node* n, const V& v, const Node* l,
                            const Node* r) {
    return mk(b, n->key, v, l, r);
  }

  template <class B>
  static const Node* build(B& b, const K& k, const V& v, const Node* l,
                           const Node* r, bool /*bottom*/) {
    return mk(b, k, v, l, r);
  }

  /// Builds a balanced node (k, v, l, r), restoring the invariant with at
  /// most two rotations. l and r are valid subtrees at most one inserted
  /// or removed key away from balanced (the standard insert/erase
  /// precondition; an AVL height gap of at most 2).
  template <class B>
  static const Node* balance(B& b, const K& k, const V& v, const Node* l,
                             const Node* r) {
    if (Tree::heavy(l, r)) {
      // Left-heavy. l is non-null.
      if (Tree::single(l->left, l->right)) {
        // Single right rotation: l becomes the root.
        b.supersede(l);
        return mk(b, l->key, l->value, l->left, mk(b, k, v, l->right, r));
      }
      // Left-right double rotation: l->right becomes the root.
      const Node* lr = l->right;
      b.supersede(l);
      b.supersede(lr);
      return mk(b, lr->key, lr->value,
                mk(b, l->key, l->value, l->left, lr->left),
                mk(b, k, v, lr->right, r));
    }
    if (Tree::heavy(r, l)) {
      // Right-heavy. r is non-null.
      if (Tree::single(r->right, r->left)) {
        b.supersede(r);
        return mk(b, r->key, r->value, mk(b, k, v, l, r->left), r->right);
      }
      const Node* rl = r->left;
      b.supersede(r);
      b.supersede(rl);
      return mk(b, rl->key, rl->value, mk(b, k, v, l, rl->left),
                mk(b, r->key, r->value, rl->right, r->right));
    }
    return mk(b, k, v, l, r);
  }

  template <class B>
  static const Node* insert_rec(B& b, const Node* n, const K& key,
                                const V& value) {
    if (n == nullptr) return mk(b, key, value, nullptr, nullptr);
    Cmp cmp;
    b.supersede(n);
    if (cmp(key, n->key)) {
      return balance(b, n->key, n->value, insert_rec(b, n->left, key, value),
                     n->right);
    }
    PC_DASSERT(cmp(n->key, key), "insert_rec on a present key");
    return balance(b, n->key, n->value, n->left,
                   insert_rec(b, n->right, key, value));
  }

  template <class B>
  static const Node* erase_rec(B& b, const Node* n, const K& key) {
    PC_DASSERT(n != nullptr, "erase_rec past a leaf");
    Cmp cmp;
    b.supersede(n);
    if (cmp(key, n->key)) {
      return balance(b, n->key, n->value, erase_rec(b, n->left, key), n->right);
    }
    if (cmp(n->key, key)) {
      return balance(b, n->key, n->value, n->left, erase_rec(b, n->right, key));
    }
    if (n->left == nullptr) return n->right;
    if (n->right == nullptr) return n->left;
    // Two children: pull up the in-order successor.
    auto [min_key, min_value, nr] = pop_min(b, n->right);
    return balance(b, min_key, min_value, n->left, nr);
  }

  /// Removes the minimum of subtree n; returns (key, value, new subtree).
  template <class B>
  static std::tuple<K, V, const Node*> pop_min(B& b, const Node* n) {
    b.supersede(n);
    if (n->left == nullptr) return {n->key, n->value, n->right};
    auto [k, v, nl] = pop_min(b, n->left);
    return {k, v, balance(b, n->key, n->value, nl, n->right)};
  }

  /// Joins l < (k, v) < r where l and r may differ in size arbitrarily
  /// (the batch recursion hands back reshaped subtrees). Descends the
  /// heavier side's inner spine until the balance predicate holds, then
  /// links; every unwind step is a balance() whose inputs are at most one
  /// step out of balance, so the result is valid level by level (AVL: in
  /// O(|h(l) - h(r)|) copies; weight-balanced: Adams' `link`).
  template <class B>
  static const Node* join(B& b, const K& k, const V& v, const Node* l,
                          const Node* r) {
    if (Tree::heavy(l, r)) {
      b.supersede(l);
      return balance(b, l->key, l->value, l->left, join(b, k, v, l->right, r));
    }
    if (Tree::heavy(r, l)) {
      b.supersede(r);
      return balance(b, r->key, r->value, join(b, k, v, l, r->left), r->right);
    }
    return mk(b, k, v, l, r);
  }
};

}  // namespace pathcopy::persist
