// Umbrella header for the SkySR library.
//
// SkySR reproduces "Sequenced Route Query with Semantic Hierarchy"
// (Sasaki, Ishikawa, Fujiwara, Onizuka — EDBT 2018): skyline sequenced-route
// queries over road networks with a category-forest semantic hierarchy.
//
// Quick start:
//   #include "skysr.h"
//   using namespace skysr;
//   Dataset ds = MakeDataset(TokyoLikeSpec(0.02));
//   BssrEngine engine(ds.graph, ds.forest);
//   CategoryId food = ds.forest.FindByName("Asian Restaurant");
//   ...
//   auto result = engine.Run(MakeSimpleQuery(start, {food, arts, shop}));

#ifndef SKYSR_SKYSR_H_
#define SKYSR_SKYSR_H_

#include "baseline/brute_force.h"      // IWYU pragma: export
#include "baseline/naive_skysr.h"      // IWYU pragma: export
#include "baseline/osr_dijkstra.h"     // IWYU pragma: export
#include "baseline/osr_pne.h"          // IWYU pragma: export
#include "category/category_forest.h"  // IWYU pragma: export
#include "category/similarity.h"       // IWYU pragma: export
#include "category/taxonomy_factory.h" // IWYU pragma: export
#include "category/text_format.h"      // IWYU pragma: export
#include "core/bssr_engine.h"          // IWYU pragma: export
#include "core/query.h"                // IWYU pragma: export
#include "core/route.h"                // IWYU pragma: export
#include "ext/unordered_trip.h"        // IWYU pragma: export
#include "graph/dijkstra.h"            // IWYU pragma: export
#include "graph/graph.h"               // IWYU pragma: export
#include "graph/graph_builder.h"       // IWYU pragma: export
#include "graph/io.h"                  // IWYU pragma: export
#include "index/ch_oracle.h"           // IWYU pragma: export
#include "index/index_io.h"           // IWYU pragma: export
#include "retrieval/bucket_io.h"       // IWYU pragma: export
#include "retrieval/bucket_retriever.h" // IWYU pragma: export
#include "retrieval/poi_retriever.h"   // IWYU pragma: export
#include "retrieval/resumable_retriever.h"  // IWYU pragma: export
#include "scenario/diff_check.h"       // IWYU pragma: export
#include "scenario/scenario.h"         // IWYU pragma: export
#include "service/query_service.h"     // IWYU pragma: export
#include "util/rng.h"                  // IWYU pragma: export
#include "workload/dataset.h"          // IWYU pragma: export
#include "workload/query_gen.h"        // IWYU pragma: export

#endif  // SKYSR_SKYSR_H_
