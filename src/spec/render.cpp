#include "spec/render.hpp"

#include <sstream>

namespace weakset::spec {

std::string render(const RefSet& value) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const ObjectRef ref : value) {
    if (!first) os << ", ";
    first = false;
    os << "obj" << ref.id().raw() << "@n" << ref.home().raw();
  }
  os << '}';
  return os.str();
}

std::string render(const InvocationRecord& invocation, std::size_t index) {
  std::ostringstream os;
  os << "  S_" << (index + 1) << " @" << invocation.pre_time().as_millis()
     << "ms  " << to_string(invocation.outcome());
  if (invocation.element()) {
    os << " yields obj" << invocation.element()->id().raw() << "@n"
       << invocation.element()->home().raw();
  }
  os << "\n      s_pre = " << render(invocation.pre().members())
     << "\n      reachable(s)_pre = " << render(invocation.pre().reachable());
  return os.str();
}

std::string render(const IterationTrace& trace) {
  std::ostringstream os;
  os << "computation (first-state @" << trace.first_time().as_millis()
     << "ms):\n"
     << "  s_first = " << render(trace.first().members()) << "\n"
     << "  reachable(s)_first = " << render(trace.first().reachable())
     << "\n";
  std::size_t index = 0;
  for (const InvocationRecord& invocation : trace.invocations()) {
    os << render(invocation, index++) << "\n";
  }
  os << "  last-state @" << trace.last_time().as_millis() << "ms, yielded = ";
  std::set<ObjectRef> yielded;
  for (const ObjectRef ref : trace.yield_sequence()) yielded.insert(ref);
  os << render(yielded);
  return os.str();
}

std::string render(const SpecReport& report) {
  std::ostringstream os;
  os << report.name() << ": "
     << (report.satisfied() ? "SATISFIED" : "VIOLATED");
  if (!report.satisfied()) {
    os << " (" << report.violation_count() << " violations)";
    for (const std::string& violation : report.violations()) {
      os << "\n    - " << violation;
    }
  }
  return os.str();
}

std::string render(const Conformance& conformance) {
  return "satisfies: " + conformance.to_string();
}

}  // namespace weakset::spec
