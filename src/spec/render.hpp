#pragma once

// Rendering recorded computations in the paper's notation.
//
// A trace prints as the alternating state/transition sequence of section 2,
//     σ_first  S_1 σ_1  S_2 σ_2 ...
// with each invocation shown with its outcome (suspends/returns/fails/
// blocked), the yielded element, and the pre-state value of the set and its
// reachable subset. Reports print their violations. Used by the
// executable-specs example and handy when debugging conformance failures.

#include <string>

#include "spec/specs.hpp"
#include "spec/trace.hpp"

namespace weakset::spec {

/// "{obj1@n0, obj2@n1}" — a set value (a std::set converts implicitly).
std::string render(const RefSet& value);

/// One invocation, single line.
std::string render(const InvocationRecord& invocation, std::size_t index);

/// The whole computation, multi-line.
std::string render(const IterationTrace& trace);

/// A check outcome with its violations (if any).
std::string render(const SpecReport& report);

/// The conformance line for a run: "satisfies: fig4 fig5 fig6".
std::string render(const Conformance& conformance);

}  // namespace weakset::spec
