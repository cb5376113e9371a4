// Umbrella header for the PIS library: substructure search with
// superimposed distance (Yan, Zhu, Han & Yu, ICDE 2006).
//
// Typical usage:
//
//   pis::MoleculeGenerator gen;                     // or ReadSdfFile(...)
//   pis::GraphDatabase db = gen.Generate(10000);
//
//   // Frequent skeletons + gIndex selection; 0 threads = all cores.
//   auto features = pis::MineDiscriminativeFeatures(
//       db, /*max_fragment_edges=*/4, /*min_support_fraction=*/0.05,
//       /*gamma=*/1.0, /*num_threads=*/0);
//
//   pis::FragmentIndexOptions idx_opts;             // edge mutation distance
//   auto index = pis::ShardedFragmentIndex::Build(
//       db, features.value(), idx_opts, /*num_shards=*/1);
//   index.value().SaveDir("index_dir");             // LoadDir reads it back
//
//   pis::PisOptions opts;  opts.sigma = 2;
//   pis::PisEngine engine(&db, &index.value(), opts);
//   auto result = engine.Search(query);             // exact SSSD answers
//
// More shards change only how the index is stored and how many physical
// range queries run; answers and candidates stay the same. A FragmentIndex
// built or loaded on its own joins in through
// ShardedFragmentIndex::FromFragmentIndex.
#ifndef PIS_PIS_H_
#define PIS_PIS_H_

#include "canonical/dfs_code.h"      // IWYU pragma: export
#include "canonical/min_dfs.h"       // IWYU pragma: export
#include "core/naive_search.h"       // IWYU pragma: export
#include "core/options.h"            // IWYU pragma: export
#include "core/partition.h"          // IWYU pragma: export
#include "core/pis.h"                // IWYU pragma: export
#include "core/query_fragments.h"    // IWYU pragma: export
#include "core/selectivity.h"        // IWYU pragma: export
#include "core/stats.h"              // IWYU pragma: export
#include "core/topk.h"               // IWYU pragma: export
#include "core/topo_prune.h"         // IWYU pragma: export
#include "core/verifier.h"           // IWYU pragma: export
#include "distance/distance_spec.h"  // IWYU pragma: export
#include "distance/linear.h"         // IWYU pragma: export
#include "distance/mutation.h"       // IWYU pragma: export
#include "distance/score_matrix.h"   // IWYU pragma: export
#include "distance/superimposed.h"   // IWYU pragma: export
#include "graph/generator.h"         // IWYU pragma: export
#include "graph/graph.h"             // IWYU pragma: export
#include "graph/io.h"                // IWYU pragma: export
#include "graph/label_map.h"         // IWYU pragma: export
#include "graph/query_sampler.h"     // IWYU pragma: export
#include "graph/sdf_parser.h"        // IWYU pragma: export
#include "graph/statistics.h"        // IWYU pragma: export
#include "index/fragment_enum.h"     // IWYU pragma: export
#include "index/fragment_index.h"    // IWYU pragma: export
#include "index/sharded_index.h"     // IWYU pragma: export
#include "isomorphism/vf2.h"         // IWYU pragma: export
// The serving layer (server/engine_host.h, server/pis_server.h,
// util/socket.h) is deliberately NOT exported here: it drags POSIX socket
// headers into every consumer, and only the server binaries need it —
// include those headers directly.
#include "mining/feature_selector.h" // IWYU pragma: export
#include "mining/gspan.h"            // IWYU pragma: export
#include "mining/pipeline.h"         // IWYU pragma: export
#include "util/json.h"               // IWYU pragma: export
#include "util/parallel.h"           // IWYU pragma: export

#endif  // PIS_PIS_H_
