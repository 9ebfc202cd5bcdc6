#include "core/formula.h"

#include "util/check.h"
#include "util/strings.h"

namespace mcmc::core {

struct Formula::Node {
  enum class Kind { Atom, And, Or };
  Kind kind = Kind::Atom;
  Atom atom = Atom::False;
  std::string custom_name;
  CustomPredicate custom_pred;
  std::vector<std::shared_ptr<const Node>> children;
};

Formula Formula::constant(bool value) {
  auto n = std::make_shared<Node>();
  n->atom = value ? Atom::True : Atom::False;
  return Formula(std::move(n));
}

Formula Formula::atom(Atom a) {
  MCMC_REQUIRE_MSG(a != Atom::Custom, "use Formula::custom for custom atoms");
  auto n = std::make_shared<Node>();
  n->atom = a;
  return Formula(std::move(n));
}

Formula Formula::custom(std::string name, CustomPredicate pred) {
  MCMC_REQUIRE(pred != nullptr);
  auto n = std::make_shared<Node>();
  n->atom = Atom::Custom;
  n->custom_name = std::move(name);
  n->custom_pred = std::move(pred);
  return Formula(std::move(n));
}

Formula Formula::conj(std::vector<Formula> operands) {
  MCMC_REQUIRE(!operands.empty());
  if (operands.size() == 1) return operands[0];
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::And;
  for (auto& f : operands) n->children.push_back(f.node_);
  return Formula(std::move(n));
}

Formula Formula::disj(std::vector<Formula> operands) {
  MCMC_REQUIRE(!operands.empty());
  if (operands.size() == 1) return operands[0];
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::Or;
  for (auto& f : operands) n->children.push_back(f.node_);
  return Formula(std::move(n));
}

namespace {

bool eval_atom(Atom a, const std::string&, const CustomPredicate& pred,
               const Analysis& an, EventId x, EventId y) {
  switch (a) {
    case Atom::True:
      return true;
    case Atom::False:
      return false;
    case Atom::ReadX:
      return an.is_read(x);
    case Atom::ReadY:
      return an.is_read(y);
    case Atom::WriteX:
      return an.is_write(x);
    case Atom::WriteY:
      return an.is_write(y);
    case Atom::FenceX:
      return an.is_fence(x);
    case Atom::FenceY:
      return an.is_fence(y);
    case Atom::SameAddr:
      return an.same_addr(x, y);
    case Atom::DataDep:
      return an.data_dep(x, y);
    case Atom::ControlDep:
      return an.ctrl_dep(x, y);
    case Atom::Custom:
      return pred(an, x, y);
  }
  MCMC_UNREACHABLE("bad atom");
}

}  // namespace

struct FormulaEval;  // (placeholder to keep clang-format stable)

bool Formula::eval(const Analysis& analysis, EventId x, EventId y) const {
  struct Rec {
    static bool go(const Node& n, const Analysis& an, EventId x, EventId y) {
      switch (n.kind) {
        case Node::Kind::Atom:
          return eval_atom(n.atom, n.custom_name, n.custom_pred, an, x, y);
        case Node::Kind::And:
          for (const auto& c : n.children) {
            if (!go(*c, an, x, y)) return false;
          }
          return true;
        case Node::Kind::Or:
          for (const auto& c : n.children) {
            if (go(*c, an, x, y)) return true;
          }
          return false;
      }
      MCMC_UNREACHABLE("bad node kind");
    }
  };
  return Rec::go(*node_, analysis, x, y);
}

void Formula::eval_po_matrix(const Analysis& analysis,
                             std::array<std::uint64_t, 64>& rows) const {
  MCMC_REQUIRE_MSG(analysis.masks_valid(),
                   "eval_po_matrix needs a <= 64-event analysis");
  // One frame per subformula: row x is the mask of events y for which
  // the subformula holds on (x, y).  Frames are stack values (the
  // matrix path must not heap-allocate).
  struct Matrix {
    std::array<std::uint64_t, 64> rows;
  };
  struct Rec {
    static void atom(const Node& nd, const Analysis& an, Matrix& out) {
      const int n = an.num_events();
      const std::uint64_t full = n == 64 ? ~0ULL : (1ULL << n) - 1;
      const auto fill = [&](auto&& row_of) {
        for (EventId x = 0; x < n; ++x) {
          out.rows[static_cast<std::size_t>(x)] = row_of(x);
        }
      };
      switch (nd.atom) {
        case Atom::True:
          fill([&](EventId) { return full; });
          break;
        case Atom::False:
          fill([](EventId) { return 0ULL; });
          break;
        case Atom::ReadX:
          fill([&](EventId x) { return an.is_read(x) ? full : 0ULL; });
          break;
        case Atom::ReadY:
          fill([&](EventId) { return an.reads_mask(); });
          break;
        case Atom::WriteX:
          fill([&](EventId x) { return an.is_write(x) ? full : 0ULL; });
          break;
        case Atom::WriteY:
          fill([&](EventId) { return an.writes_mask(); });
          break;
        case Atom::FenceX:
          fill([&](EventId x) { return an.is_fence(x) ? full : 0ULL; });
          break;
        case Atom::FenceY:
          fill([&](EventId) { return an.fences_mask(); });
          break;
        case Atom::SameAddr:
          fill([&](EventId x) { return an.same_addr_mask(x); });
          break;
        case Atom::DataDep:
          fill([&](EventId x) { return an.data_dep_mask(x); });
          break;
        case Atom::ControlDep:
          fill([&](EventId x) { return an.ctrl_dep_mask(x); });
          break;
        case Atom::Custom:
          // Opaque predicate: per-pair calls, restricted to the po pairs
          // the final matrix is masked to anyway.
          for (EventId x = 0; x < n; ++x) {
            std::uint64_t row = 0;
            std::uint64_t todo = an.po_mask(x);
            while (todo != 0) {
              const int y = __builtin_ctzll(todo);
              todo &= todo - 1;
              if (nd.custom_pred(an, x, y)) row |= 1ULL << y;
            }
            out.rows[static_cast<std::size_t>(x)] = row;
          }
          break;
      }
    }

    static void go(const Node& nd, const Analysis& an, Matrix& out) {
      const int n = an.num_events();
      switch (nd.kind) {
        case Node::Kind::Atom:
          atom(nd, an, out);
          return;
        case Node::Kind::And:
        case Node::Kind::Or: {
          go(*nd.children.front(), an, out);
          for (std::size_t c = 1; c < nd.children.size(); ++c) {
            Matrix child;
            go(*nd.children[c], an, child);
            for (EventId x = 0; x < n; ++x) {
              const auto sx = static_cast<std::size_t>(x);
              if (nd.kind == Node::Kind::And) {
                out.rows[sx] &= child.rows[sx];
              } else {
                out.rows[sx] |= child.rows[sx];
              }
            }
          }
          return;
        }
      }
      MCMC_UNREACHABLE("bad node kind");
    }
  };

  Matrix m;
  Rec::go(*node_, analysis, m);
  const int n = analysis.num_events();
  for (EventId x = 0; x < n; ++x) {
    rows[static_cast<std::size_t>(x)] =
        m.rows[static_cast<std::size_t>(x)] & analysis.po_mask(x);
  }
  for (int x = n; x < 64; ++x) rows[static_cast<std::size_t>(x)] = 0;
}

bool Formula::is_false() const {
  return node_->kind == Node::Kind::Atom && node_->atom == Atom::False;
}

bool Formula::has_custom() const {
  struct Rec {
    static bool go(const Node& n) {
      if (n.kind == Node::Kind::Atom) return n.atom == Atom::Custom;
      for (const auto& c : n.children) {
        if (go(*c)) return true;
      }
      return false;
    }
  };
  return Rec::go(*node_);
}

namespace {

std::string atom_name(Atom a, const std::string& custom_name) {
  switch (a) {
    case Atom::True:
      return "true";
    case Atom::False:
      return "false";
    case Atom::ReadX:
      return "Read(x)";
    case Atom::ReadY:
      return "Read(y)";
    case Atom::WriteX:
      return "Write(x)";
    case Atom::WriteY:
      return "Write(y)";
    case Atom::FenceX:
      return "Fence(x)";
    case Atom::FenceY:
      return "Fence(y)";
    case Atom::SameAddr:
      return "SameAddr(x,y)";
    case Atom::DataDep:
      return "DataDep(x,y)";
    case Atom::ControlDep:
      return "ControlDep(x,y)";
    case Atom::Custom:
      return custom_name + "(x,y)";
  }
  MCMC_UNREACHABLE("bad atom");
}

}  // namespace

std::string Formula::to_string() const {
  // Parenthesize whenever a connective nests inside a different one, so
  // the rendering never relies on precedence conventions.
  struct Rec {
    static std::string go(const Node& n, Node::Kind parent) {
      switch (n.kind) {
        case Node::Kind::Atom:
          return atom_name(n.atom, n.custom_name);
        case Node::Kind::And: {
          std::vector<std::string> parts;
          for (const auto& c : n.children) {
            parts.push_back(go(*c, Node::Kind::And));
          }
          const std::string s = util::join(parts, " & ");
          return parent == Node::Kind::Or ? "(" + s + ")" : s;
        }
        case Node::Kind::Or: {
          std::vector<std::string> parts;
          for (const auto& c : n.children) {
            parts.push_back(go(*c, Node::Kind::Or));
          }
          const std::string s = util::join(parts, " | ");
          return parent == Node::Kind::And ? "(" + s + ")" : s;
        }
      }
      MCMC_UNREACHABLE("bad node kind");
    }
  };
  return Rec::go(*node_, Node::Kind::Atom);
}

Formula operator&&(const Formula& a, const Formula& b) {
  return Formula::conj({a, b});
}

Formula operator||(const Formula& a, const Formula& b) {
  return Formula::disj({a, b});
}

Formula f_true() { return Formula::constant(true); }
Formula f_false() { return Formula::constant(false); }
Formula read_x() { return Formula::atom(Atom::ReadX); }
Formula read_y() { return Formula::atom(Atom::ReadY); }
Formula write_x() { return Formula::atom(Atom::WriteX); }
Formula write_y() { return Formula::atom(Atom::WriteY); }
Formula fence_x() { return Formula::atom(Atom::FenceX); }
Formula fence_y() { return Formula::atom(Atom::FenceY); }
Formula same_addr() { return Formula::atom(Atom::SameAddr); }
Formula data_dep() { return Formula::atom(Atom::DataDep); }
Formula ctrl_dep() { return Formula::atom(Atom::ControlDep); }

}  // namespace mcmc::core
