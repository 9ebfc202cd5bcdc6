// Quantifier-free positive boolean formulas over instruction-pair
// predicates: the representation of must-not-reorder functions F(x, y)
// (Section 2.3 of the paper).
//
// Atoms are the paper's predicates applied to the pair (x, y):
//   Read(x), Read(y), Write(x), Write(y), Fence(x), Fence(y),
//   SameAddr(x, y), DataDep(x, y), ControlDep(x, y),
// plus user-registered custom predicates (needed for the Section 3.3
// special-fence construction and for exploring exotic models).
//
// Formulas are immutable trees with value semantics; combine them with
// `&&` and `||`.  Negation is intentionally absent (the class is positive).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis.h"

namespace mcmc::core {

/// Built-in predicate atoms.
enum class Atom {
  True,
  False,
  ReadX,
  ReadY,
  WriteX,
  WriteY,
  FenceX,
  FenceY,
  SameAddr,
  DataDep,
  ControlDep,
  Custom,
};

/// Signature of a custom predicate: evaluated on the analyzed program and
/// an ordered event pair with po(x, y).
using CustomPredicate =
    std::function<bool(const Analysis&, EventId x, EventId y)>;

/// A positive boolean formula over pair predicates.
class Formula {
 public:
  /// Constant and atom factories.
  static Formula constant(bool value);
  static Formula atom(Atom a);
  /// Custom predicate atom; `name` is used for printing.
  static Formula custom(std::string name, CustomPredicate pred);

  static Formula conj(std::vector<Formula> operands);
  static Formula disj(std::vector<Formula> operands);

  /// Evaluates F(x, y) for events with po(x, y) in `analysis`.
  [[nodiscard]] bool eval(const Analysis& analysis, EventId x,
                          EventId y) const;

  /// Evaluates F over every program-order pair in ONE tree traversal:
  /// on return, bit y of `rows[x]` is set iff po(x, y) and F(x, y).
  /// Built-in atoms combine the analysis' precomputed bitmask rows
  /// word-wise; custom-predicate atoms fall back to per-pair calls.
  /// Requires `analysis.masks_valid()` (at most 64 events); performs no
  /// heap allocation for custom-free formulas.
  void eval_po_matrix(const Analysis& analysis,
                      std::array<std::uint64_t, 64>& rows) const;

  /// Renders the formula, e.g. "(Write(x) & Write(y)) | Fence(x) | Fence(y)".
  [[nodiscard]] std::string to_string() const;

  /// True if this formula is the constant `false`.
  [[nodiscard]] bool is_false() const;

  /// True if any atom is a user-registered custom predicate (whose
  /// semantics the library cannot inspect).
  [[nodiscard]] bool has_custom() const;

  /// Stable identity of the underlying immutable tree: copies share it,
  /// independently built formulas do not.  Caches key formulas with
  /// custom predicates by identity, since structural equality cannot be
  /// decided for opaque predicate functions.
  [[nodiscard]] const void* identity() const { return node_.get(); }

 private:
  struct Node;
  explicit Formula(std::shared_ptr<const Node> node) : node_(std::move(node)) {}
  std::shared_ptr<const Node> node_;
};

[[nodiscard]] Formula operator&&(const Formula& a, const Formula& b);
[[nodiscard]] Formula operator||(const Formula& a, const Formula& b);

// Named atom shorthands.
[[nodiscard]] Formula f_true();
[[nodiscard]] Formula f_false();
[[nodiscard]] Formula read_x();
[[nodiscard]] Formula read_y();
[[nodiscard]] Formula write_x();
[[nodiscard]] Formula write_y();
[[nodiscard]] Formula fence_x();
[[nodiscard]] Formula fence_y();
[[nodiscard]] Formula same_addr();
[[nodiscard]] Formula data_dep();
[[nodiscard]] Formula ctrl_dep();

}  // namespace mcmc::core
