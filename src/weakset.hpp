#pragma once

// Umbrella header for the weakset library.
//
// Pulls in the public API of every module: the simulated substrate
// (simulator, topology, RPC, repository), the weak-set core (SetView,
// iterators, WeakSet), dynamic sets, the distributed file system, the query
// engine, and the executable-specification layer. Include this for
// applications; library code includes the specific headers it needs.

// Substrate
#include "net/chaos.hpp"        // IWYU pragma: export
#include "net/rpc.hpp"          // IWYU pragma: export
#include "net/topology.hpp"     // IWYU pragma: export
#include "sim/channel.hpp"      // IWYU pragma: export
#include "sim/simulator.hpp"    // IWYU pragma: export
#include "sim/task.hpp"         // IWYU pragma: export
#include "store/admission.hpp"  // IWYU pragma: export
#include "store/cache.hpp"      // IWYU pragma: export
#include "store/client.hpp"     // IWYU pragma: export
#include "store/reachable.hpp"  // IWYU pragma: export
#include "store/repository.hpp" // IWYU pragma: export

// Load generation (population-scale workloads)
#include "load/workload.hpp"  // IWYU pragma: export
#include "load/zipf.hpp"      // IWYU pragma: export

// Placement: versioned directory, live migration, rebalancing
#include "placement/directory.hpp"   // IWYU pragma: export
#include "placement/migration.hpp"   // IWYU pragma: export
#include "placement/rebalancer.hpp"  // IWYU pragma: export

// Core: weak sets
#include "core/caching_view.hpp"  // IWYU pragma: export
#include "core/iterator.hpp"      // IWYU pragma: export
#include "core/local_view.hpp"    // IWYU pragma: export
#include "core/repo_view.hpp"     // IWYU pragma: export
#include "core/set_view.hpp"      // IWYU pragma: export
#include "core/value_set.hpp"     // IWYU pragma: export
#include "core/weak_set.hpp"      // IWYU pragma: export

// Dynamic sets, file system, queries
#include "dynset/dynamic_set.hpp"  // IWYU pragma: export
#include "fs/dist_fs.hpp"          // IWYU pragma: export
#include "fs/ls.hpp"               // IWYU pragma: export
#include "fs/walk.hpp"             // IWYU pragma: export
#include "query/query_set.hpp"     // IWYU pragma: export
#include "query/scan.hpp"          // IWYU pragma: export

// Executable specifications
#include "spec/render.hpp"      // IWYU pragma: export
#include "spec/repo_truth.hpp"  // IWYU pragma: export
#include "spec/specs.hpp"       // IWYU pragma: export
#include "spec/taxonomy.hpp"    // IWYU pragma: export
