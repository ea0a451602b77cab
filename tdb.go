// Package tdb breaks all hop-constrained cycles in large directed graphs.
//
// It implements the algorithms of "TDB: Breaking All Hop-Constrained Cycles
// in Billion-Scale Directed Graphs" (ICDE 2023): given a directed graph G
// and a hop constraint k, compute a small vertex set that intersects every
// simple directed cycle of length between 3 and k (a hop-constrained cycle
// cover). Finding a minimum cover is NP-hard and UGC-hard to approximate
// within k-1-eps, so the algorithms return minimal (locally irreducible)
// covers:
//
//   - TDBPlusPlus (default): the paper's top-down algorithm with the
//     block/barrier detector and BFS-filter — fastest, scales furthest.
//   - TDBPlus, TDB: the same top-down process with fewer optimizations.
//   - BURPlus, BUR: the bottom-up hit-count heuristic; slower, usually the
//     smallest covers.
//   - DARCDV: the DARC k-cycle-transversal baseline (edge selection
//     projected to vertices).
//
// # Quick start
//
// Solve is the single entry point: it takes a context, a graph, the hop
// constraint, and functional options, and automatically selects the
// execution strategy (sequential or SCC-partitioned parallel) from the
// graph's structure and the worker budget:
//
//	b := tdb.NewBuilder(0)
//	b.AddEdge(0, 1)
//	b.AddEdge(1, 2)
//	b.AddEdge(2, 0)
//	g := b.Build()
//	res, err := tdb.Solve(ctx, g, 5) // break all cycles of length 3..5
//	// res.Cover == [some vertex of the triangle]
//	// res.Stats.Strategy records the plan that served the request
//
// Options select algorithms and variants — WithAlgorithm(BURPlus) when
// cover size matters most, WithEdgeCover for the edge-transversal problem,
// WithUnconstrained to drop the hop bound, WithWeights for cost-aware
// covers — and pin execution when needed (WithStrategy, WithWorkers).
//
// # Serving repeated traffic
//
// Repeated solves over one fixed graph should go through an Engine, which
// pools all O(n) working state and caches the strategy planner's graph
// inspection:
//
//	eng := tdb.NewEngine(g)
//	res, err := eng.Solve(ctx, 5)
//
// # Real-world vertex identities
//
// Production graphs rarely arrive with dense integer vertex IDs. The
// labeled layer maps any comparable external ID type (account numbers,
// lock names, gate identifiers) to dense VIDs and translates results back:
//
//	lb := tdb.NewLabeledBuilder[string]()
//	lb.AddEdge("acct-7", "acct-19")
//	lb.AddEdge("acct-19", "acct-3")
//	lb.AddEdge("acct-3", "acct-7")
//	lg := lb.Build()
//	res, err := lg.Solve(ctx, 5)
//	// res.Cover == ["acct-19"] (or another account of the ring)
//
// Use Verify to check any cover, and the cmd/ tools for file-based and
// experiment workflows. Typical applications: picking accounts that break
// all short money-transfer rings (fraud), locks that break all short
// lock-order cycles (deadlock avoidance), and register placement breaking
// short combinational feedback loops (circuit design); see examples/.
package tdb

import (
	"tdb/internal/core"
	"tdb/internal/cycle"
	"tdb/internal/digraph"
	"tdb/internal/verify"
)

// VID identifies a vertex: dense integers in [0, NumVertices). The labeled
// layer (LabeledGraph) maps arbitrary external IDs onto VIDs.
type VID = digraph.VID

// Edge is a directed edge.
type Edge = digraph.Edge

// Graph is an immutable directed graph in compressed-sparse-row form.
type Graph = digraph.Graph

// Storage is the read-side adjacency contract every algorithm in this
// package consumes: any backend exposing per-vertex neighbor slices.
// *Graph (the in-memory CSR) and *MappedGraph (the mmap-backed segmented
// CSR for graphs larger than RAM) both satisfy it; Solve, Verify and the
// query helpers accept any Storage, and WithStorage / NewStorageEngine
// plug a non-default backend into the solve path.
type Storage = digraph.Adjacency

// MappedGraph is the mmap-backed storage backend: an immutable CSR served
// zero-copy out of a memory mapping of a TDBCSR1 file, so read-mostly
// graphs bigger than RAM can be solved with the OS paging adjacency in on
// demand. Build one with Builder.BuildMapped or SaveMapped, open it with
// OpenMapped, and Close it when every consumer is done.
type MappedGraph = digraph.MappedGraph

// OpenMapped opens a TDBCSR1 file as a MappedGraph, fully validating the
// header and arrays first (corrupted files yield an error, never a later
// panic).
func OpenMapped(path string) (*MappedGraph, error) { return digraph.OpenMapped(path) }

// SaveMapped writes any storage backend as a TDBCSR1 file ready for
// OpenMapped.
func SaveMapped(path string, g Storage) error { return digraph.WriteMapped(path, g) }

// OpenStorage opens path with the backend chosen by content: TDBCSR1
// files map zero-copy, anything else loads in memory (text edge lists,
// optionally gzipped, or the binary format). The returned closer releases
// mapped resources; it is a no-op for in-memory graphs.
func OpenStorage(path string) (Storage, func() error, error) { return digraph.OpenStorage(path) }

// IsMappedFile sniffs whether path begins with the TDBCSR1 magic, i.e.
// whether OpenMapped can serve it.
func IsMappedFile(path string) bool { return digraph.IsMappedFile(path) }

// Materialize copies any storage backend into the in-memory CSR. If s is
// already an in-memory Graph it is returned as-is.
func Materialize(s Storage) *Graph { return digraph.Materialize(s) }

// Builder accumulates edges for a Graph. Self-loops are dropped and
// duplicate edges merged by default.
type Builder = digraph.Builder

// NewBuilder returns a Builder for a graph with at least n vertices.
func NewBuilder(n int) *Builder { return digraph.NewBuilder(n) }

// FromEdges builds a graph from an edge list under default policies.
func FromEdges(n int, edges []Edge) *Graph { return digraph.FromEdges(n, edges) }

// LoadGraph reads a graph from a file: SNAP-style text edge lists, or the
// binary format for paths ending in ".bin".
func LoadGraph(path string) (*Graph, error) { return digraph.LoadFile(path) }

// SaveGraph writes a graph to a file, choosing the format by extension as
// in LoadGraph.
func SaveGraph(path string, g *Graph) error { return digraph.SaveFile(path, g) }

// Algorithm selects a cover algorithm; see the package documentation.
type Algorithm = core.Algorithm

// Cover algorithms, in the paper's naming.
const (
	BUR         = core.BUR
	BURPlus     = core.BURPlus
	TDB         = core.TDB
	TDBPlus     = core.TDBPlus
	TDBPlusPlus = core.TDBPlusPlus
	DARCDV      = core.DARCDV
)

// Order selects the candidate processing order.
type Order = core.Order

// Candidate processing orders.
const (
	OrderNatural    = core.OrderNatural
	OrderDegreeAsc  = core.OrderDegreeAsc
	OrderDegreeDesc = core.OrderDegreeDesc
	OrderRandom     = core.OrderRandom
	// OrderWeighted processes expensive vertices first so they are
	// preferentially excluded from the cover; requires WithWeights.
	OrderWeighted = core.OrderWeighted
)

// Result is a computed cover plus run statistics; Stats records the
// execution plan Solve selected.
type Result = core.Result

// Stats describes the work performed during a cover computation.
type Stats = core.Stats

// Engine computes repeated solves over one fixed graph while pooling all
// working state (detector tables, filter queues, the active-adjacency
// working graph) across runs — the entry point for serving heavy repeated
// traffic. One-shot Solve calls allocate that state afresh on every run; an
// Engine brings steady-state allocations down to the returned result, and
// caches the strategy planner's SCC inspection of the fixed graph.
// Engines are safe for concurrent use.
type Engine struct {
	e *core.Engine
}

// RenumberPerm computes the cache-aware locality permutation of g under
// mode (perm[old] = new, deterministic; the identity for RenumberNone).
// Renumbering happens once, at ingest: build the renumbered graph with
// g.Renumber(perm) (or Builder.BuildRenumbered), solve it, and translate
// the cover back with InversePerm.
func RenumberPerm(g *Graph, mode Renumbering) []VID {
	return digraph.RenumberPerm(g, mode)
}

// InversePerm inverts a permutation: inv[perm[v]] = v.
func InversePerm(perm []VID) []VID { return digraph.InversePerm(perm) }

// NewEngine creates a reusable compute engine over g.
func NewEngine(g *Graph) *Engine {
	return &Engine{e: core.NewEngine(g)}
}

// NewStorageEngine creates a reusable compute engine over any storage
// backend — e.g. a MappedGraph serving a graph bigger than RAM. Every
// Engine method behaves identically across backends.
func NewStorageEngine(s Storage) *Engine {
	return &Engine{e: core.NewEngine(s)}
}

// Graph returns the storage backend the engine computes over.
func (e *Engine) Graph() Storage { return e.e.Graph() }

// FindCycle returns one cycle of length in [3, k] through vertex s, or
// nil, on scratch borrowed from the engine's pool — the allocation-free
// counterpart of the package-level FindCycle.
func (e *Engine) FindCycle(k int, s VID) []VID {
	return e.e.FindCycle(k, cycle.DefaultMinLen, s)
}

// HasHopConstrainedCycle reports whether the engine's graph contains any
// cycle of length in [3, k], with pooled scratch.
func (e *Engine) HasHopConstrainedCycle(k int) bool {
	return e.e.HasHopConstrainedCycle(k, cycle.DefaultMinLen)
}

// Report is the outcome of Verify.
type Report = verify.Report

// Verify checks that cover intersects every cycle of length in [minLen, k]
// and, when wantMinimal is set, that no cover vertex is redundant. It
// accepts any storage backend.
func Verify(g Storage, k, minLen int, cover []VID, wantMinimal bool) Report {
	return verify.Check(g, k, minLen, cover, wantMinimal)
}

// FindCycle returns one cycle of length in [3, k] through vertex s, or nil.
// It uses the paper's block-based detector. For repeated queries use
// Engine.FindCycle, which pools the detector state.
func FindCycle(g Storage, k int, s VID) []VID {
	return cycle.NewBlockDetector(g, k, cycle.DefaultMinLen, nil).FindFrom(s)
}

// HasHopConstrainedCycle reports whether g contains any cycle of length in
// [3, k]. It runs the paper's block-based detector from every vertex in ID
// order and drops each vertex whose query answered "no" from the later
// queries' graph. For repeated queries use Engine.HasHopConstrainedCycle.
func HasHopConstrainedCycle(g Storage, k int) bool {
	return cycle.HasHopConstrainedCycle(g, k, cycle.DefaultMinLen, nil, nil)
}

// EnumerateCycles lists every cycle of length in [3, k], each once, calling
// fn until it returns false. Intended for small graphs or tight k: the
// number of cycles can be exponential.
func EnumerateCycles(g Storage, k int, fn func(c []VID) bool) {
	cycle.NewEnumerator(g, k, cycle.DefaultMinLen, nil).Visit(fn)
}
