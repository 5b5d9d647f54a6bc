// Umbrella header: the full public API surface of the Makalu library.
// Downstream users can include this one header; each sub-header remains
// individually includable for faster builds.
#pragma once

// Support utilities.
#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "support/event_queue.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

// Graphs and metrics.
#include "graph/algorithms.hpp"
#include "graph/compact_graph.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"

// Physical-network latency models.
#include "net/latency_model.hpp"

// Spectral analysis.
#include "spectral/eigen.hpp"
#include "spectral/laplacian.hpp"

// Bloom filters.
#include "bloom/attenuated_bloom_filter.hpp"
#include "bloom/bloom_filter.hpp"
#include "bloom/counting_abf_table.hpp"

// Reference topologies.
#include "topology/generators.hpp"

// The Makalu overlay (the paper's contribution).
#include "core/overlay_builder.hpp"
#include "core/overlay_io.hpp"
#include "core/rating.hpp"
#include "core/rating_cache.hpp"

// Simulation substrate.
#include "sim/failure.hpp"
#include "sim/query_stats.hpp"
#include "sim/replica_placement.hpp"

// Search mechanisms.
#include "search/abf_search.hpp"
#include "search/churn.hpp"
#include "search/flood_search.hpp"
#include "search/gossip_flood.hpp"
#include "search/query_workspace.hpp"
#include "search/random_walk_search.hpp"
#include "search/search_engine.hpp"
#include "search/timed_flood.hpp"
#include "search/ttl_policy.hpp"
#include "search/two_tier_flood.hpp"

// Trace workloads.
#include "trace/gnutella_traffic.hpp"
#include "trace/synthetic_trace.hpp"

// Structured-overlay baseline.
#include "dht/chord.hpp"

// Message-level protocol layer.
#include "proto/message.hpp"
#include "proto/network.hpp"
#include "proto/node.hpp"

// Experiment drivers.
#include "analysis/abf_experiments.hpp"
#include "analysis/flood_experiments.hpp"
#include "analysis/paper_reference.hpp"
#include "analysis/parallel_query_driver.hpp"
#include "analysis/spectral_experiments.hpp"
#include "analysis/topology_factory.hpp"
#include "analysis/traffic_comparison.hpp"
