// Package fact is the public API of the reproduction of "An Asynchronous
// Computability Theorem for Fair Adversaries" (Kuznetsov, Rieutord, He;
// PODC 2018). It ties together the internal engines:
//
//   - adversaries and agreement functions (Section 3),
//   - the standard chromatic subdivision and IIS combinatorics
//     (Section 2),
//   - affine tasks R_A, R_{k-OF} and R_{t-res} (Section 4),
//   - Algorithm 1 solving R_A in the α-model (Section 5),
//   - the μ_Q simulation of the adversarial model in R_A^* (Section 6),
//   - the FACT solvability decision procedure (Theorem 16), and
//   - regeneration of the paper's figures.
//
// The central entry point is Model: build one from an adversary and ask
// it for its affine task, run the constructive algorithms, decide task
// solvability, and render figures.
package fact

import (
	"repro/internal/adversary"
	"repro/internal/affine"
	"repro/internal/api"
	"repro/internal/census"
	"repro/internal/chromatic"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/procs"
	"repro/internal/sc"
	"repro/internal/solver"
	"repro/internal/store"
	"repro/internal/tasks"
)

// Re-exported core types. The aliases make the public surface self
// contained: examples and downstream users never import internal
// packages.
type (
	// ProcID identifies a process (0-based; prints as p1..pn).
	ProcID = procs.ID
	// ProcSet is a set of processes.
	ProcSet = procs.Set
	// OrderedPartition is a one-round immediate-snapshot schedule.
	OrderedPartition = procs.OrderedPartition
	// Adversary is a collection of live sets (Section 3).
	Adversary = adversary.Adversary
	// AlphaFunc is an agreement function α: 2^Π → {0..n}.
	AlphaFunc = adversary.AlphaFunc
	// AffineTask is a pure sub-complex of Chr² s (Section 4).
	AffineTask = affine.Task
	// Universe interns Chr² s vertices into a shared identity space.
	Universe = chromatic.Universe
	// Task is a distributed task (I, O, Δ) (Section 2).
	Task = tasks.Task
	// SolveResult reports a FACT solvability decision.
	SolveResult = solver.Result
	// VertexMap is a vertex-level simplicial map (witness maps).
	VertexMap = sc.Map
	// SolverOptions tunes the solvability engine (workers, memoization).
	SolverOptions = solver.Options
	// TowerCache memoizes iterated subdivisions R_A^ℓ(I) across queries.
	TowerCache = chromatic.TowerCache
	// CacheStats is a snapshot of a TowerCache (hits, misses, sizes).
	CacheStats = chromatic.CacheStats
	// CensusOptions tunes the parallel adversary-census engine.
	CensusOptions = census.Options
	// CensusEntry is the census record of one adversary.
	CensusEntry = census.Entry
	// CensusSummary aggregates a census run.
	CensusSummary = census.Summary
	// CensusReport is the deterministic result of a census run.
	CensusReport = census.Report
	// CensusSink consumes streamed census entries in enumeration order.
	CensusSink = census.Sink
	// CensusCollector is the in-memory census sink.
	CensusCollector = census.Collector
	// CensusJSONLSink streams census entries as JSON lines to a file.
	CensusJSONLSink = census.JSONLSink
	// CensusCheckpoint is the resume state of a streaming census run.
	CensusCheckpoint = census.Checkpoint
	// CensusExaminer answers single-index census queries on the live
	// computation path (the store query layer's fallback).
	CensusExaminer = census.Examiner
	// CensusStore is the compressed, indexed on-disk census store.
	CensusStore = store.Store
	// CensusStoreStats describes a store's physical shape.
	CensusStoreStats = store.Stats
	// CensusMergeOptions tune a shard merge into a store.
	CensusMergeOptions = store.MergeOptions
	// CensusMergeStats report what one merge did.
	CensusMergeStats = store.MergeStats
	// CensusServer is the HTTP serving layer over a registry of census
	// stores (one mounted store per n, one process for all of them).
	CensusServer = store.Server
	// CensusServeOptions tune the serving layer (caches, auth, rate
	// limiting, logging, batch/range caps).
	CensusServeOptions = store.ServerOptions
	// CensusStoreRegistry mounts many census stores — one per n — for
	// a single serving process.
	CensusStoreRegistry = store.Registry
	// CensusStoreMount is one store mounted under a registry.
	CensusStoreMount = store.Mount
	// CensusAPIKey is one authorized serve-layer key with its rate
	// budget.
	CensusAPIKey = api.APIKey
	// CensusAuthConfig is the serve layer's API-key auth state.
	CensusAuthConfig = api.AuthConfig
	// CensusRangePage is one page of a store range scan.
	CensusRangePage = store.RangePage
	// CensusVerifyOptions tune a store deep check.
	CensusVerifyOptions = store.VerifyOptions
	// CensusVerifyReport is the outcome of a store deep check.
	CensusVerifyReport = store.VerifyReport
	// AdversaryOrbits enumerates color-permutation orbits of the census
	// domain (the -orbits symmetry reduction). Its
	// ForEachCanonicalFrom generator walks canonical representatives
	// directly — output-sensitive in the number of orbits — and is what
	// drives orbit-mode census sweeps; ForEachRepresentative is the
	// filter-based reference scan.
	AdversaryOrbits = adversary.Orbits
	// FabricCampaign is the sweep configuration a census-fabric
	// coordinator distributes to its workers.
	FabricCampaign = fabric.Campaign
	// FabricUnit is one leased work unit of a distributed campaign.
	FabricUnit = fabric.Unit
	// FabricCoordinator serves the v1 lease protocol over a campaign
	// and folds completed shards into the ledger store.
	FabricCoordinator = fabric.Coordinator
	// FabricCoordinatorOptions tune a campaign coordinator.
	FabricCoordinatorOptions = fabric.CoordinatorOptions
	// FabricWorkerOptions configure one fabric worker process.
	FabricWorkerOptions = fabric.WorkerOptions
	// FabricWorkerStats summarize one worker's run.
	FabricWorkerStats = fabric.WorkerStats
	// AlgOneReport aggregates an Algorithm 1 verification campaign.
	AlgOneReport = core.AlgOneReport
	// SetConsensusReport aggregates a Section 6 simulation campaign.
	SetConsensusReport = core.SetConsensusReport
	// SetConsensusSim runs α-adaptive set consensus over iterated R_A.
	SetConsensusSim = core.SetConsensusSim
	// SimResult is one simulated set-consensus execution.
	SimResult = core.SimResult
)

// Adversary constructors, re-exported.
var (
	// NewAdversary builds an adversary from explicit live sets.
	NewAdversary = adversary.New
	// WaitFree is the adversary of all non-empty live sets.
	WaitFree = adversary.WaitFree
	// TResilient is the t-resilient adversary.
	TResilient = adversary.TResilient
	// KObstructionFree is the k-obstruction-free adversary.
	KObstructionFree = adversary.KObstructionFree
	// SupersetClosure generates a superset-closed adversary.
	SupersetClosure = adversary.SupersetClosure
	// SymmetricFromSizes builds a symmetric adversary from live-set sizes.
	SymmetricFromSizes = adversary.SymmetricFromSizes
	// EnumerateAdversaries visits every adversary over n processes.
	EnumerateAdversaries = adversary.EnumerateAdversaries
	// AdversaryAt returns the idx-th adversary of the enumeration order.
	AdversaryAt = adversary.AdversaryAt
	// CensusSize returns the number of adversaries over n processes.
	CensusSize = adversary.CensusSize
	// RunCensus sweeps every adversary over n processes with the
	// sharded, parallel census engine (classify and solve modes),
	// materializing every entry (domains up to census.MaxDomain).
	RunCensus = census.Run
	// StreamCensus sweeps with bounded memory, emitting entries in
	// enumeration order to a sink — checkpointable and resumable, with
	// an orbit symmetry-reduction mode; no domain-size cap.
	StreamCensus = census.Stream
	// NewCensusJSONLSink opens a JSON-lines census stream (a ".gz"
	// path selects gzip compression automatically).
	NewCensusJSONLSink = census.NewJSONLSink
	// NewCensusJSONLSinkCompressed opens a gzip JSON-lines census
	// stream regardless of suffix (the -compress shard form).
	NewCensusJSONLSinkCompressed = census.NewJSONLSinkCompressed
	// SweepCensusRange sweeps exactly the raw enumeration indices
	// [lo, hi) — the rank-range primitive distributed fabric workers
	// drive; disjoint ranges concatenate byte-identically to a full
	// sweep.
	SweepCensusRange = census.SweepRange
	// NewFabricCoordinator builds a campaign coordinator over a ledger
	// store (recovering completed units from its contents).
	NewFabricCoordinator = fabric.NewCoordinator
	// PartitionFabricUnits slices a campaign domain into the disjoint
	// rank-balanced work units a coordinator leases out.
	PartitionFabricUnits = fabric.PartitionUnits
	// FabricWork runs a worker loop against a coordinator until the
	// campaign completes.
	FabricWork = fabric.Work
	// NewCensusExaminer builds a live single-index census query engine.
	NewCensusExaminer = census.NewExaminer
	// LoadCensusCheckpoint reads a census checkpoint sidecar.
	LoadCensusCheckpoint = census.LoadCheckpoint
	// CreateCensusStore initializes an empty census store directory.
	CreateCensusStore = store.Create
	// OpenCensusStore opens an existing census store.
	OpenCensusStore = store.Open
	// OpenOrCreateCensusStore opens a store, creating it when missing.
	OpenOrCreateCensusStore = store.OpenOrCreate
	// RehydrateCensusEntry maps a stored orbit representative's entry
	// onto another index of its orbit (Adversary.Permute).
	RehydrateCensusEntry = store.Rehydrate
	// NewCensusRegistryServer builds the HTTP serving layer over a
	// registry of mounted stores.
	NewCensusRegistryServer = store.NewServer
	// NewCensusStoreRegistry returns an empty store registry.
	NewCensusStoreRegistry = store.NewRegistry
	// LoadCensusAPIKeys reads a serve-layer API-key file
	// (name:key[:rate[:burst]] lines).
	LoadCensusAPIKeys = api.LoadAPIKeys
	// NewCensusAuthConfig builds serve-layer auth state from explicit
	// keys.
	NewCensusAuthConfig = api.NewAuthConfig
	// NewAdversaryOrbits precomputes the orbit tables for n processes.
	NewAdversaryOrbits = adversary.NewOrbits
	// AdversaryIndex is the inverse of AdversaryAt.
	AdversaryIndex = adversary.EnumerationIndex
)

// CensusMaxDomain bounds the domains RunCensus materializes in memory;
// StreamCensus has no such cap.
const CensusMaxDomain = census.MaxDomain

// Set helpers, re-exported.
var (
	// SetOf builds a process set.
	SetOf = procs.SetOf
	// FullSet is {p1..pn}.
	FullSet = procs.FullSet
)

// Engine helpers, re-exported.
var (
	// NewUniverse creates an empty Chr² vertex interner for n processes
	// (share one across models of the same n via NewModelWithUniverse).
	NewUniverse = chromatic.NewUniverse
	// NewTowerCache creates an empty iterated-subdivision cache.
	NewTowerCache = chromatic.NewTowerCache
	// NewTowerCacheWithBudget creates a byte-budgeted cache (LRU
	// eviction of least-recently-acquired towers).
	NewTowerCacheWithBudget = chromatic.NewTowerCacheWithBudget
	// SharedUniverse returns the process-wide per-n vertex interner
	// NewModel builds against.
	SharedUniverse = chromatic.SharedUniverse
	// DefaultTowerCache is the process-wide subdivision cache used by
	// Model.Solve and solver.SolveAffine.
	DefaultTowerCache = chromatic.DefaultTowerCache
	// DefaultWorkers returns the default engine worker count (one per CPU).
	DefaultWorkers = chromatic.DefaultWorkers
)

// Task constructors and the task-spec registry, re-exported.
var (
	// KSetConsensus is the k-set consensus task with distinct inputs.
	KSetConsensus = tasks.KSetConsensus
	// Consensus is 1-set consensus.
	Consensus = tasks.Consensus
	// LoopAgreement is 3-process loop agreement over a hexagonal loop.
	LoopAgreement = tasks.LoopAgreement
	// ApproxAgreement is ε-approximate agreement over integer values.
	ApproxAgreement = tasks.ApproxAgreement
	// ParseTaskSpec parses a registered task spec string such as
	// "kset:k=2", "loop-agreement" or "approx:eps=1".
	ParseTaskSpec = tasks.ParseSpec
	// KSetTaskSpec builds the spec of k-set consensus.
	KSetTaskSpec = tasks.KSetSpec
	// RegisteredTaskKinds lists the registered task kinds, sorted.
	RegisteredTaskKinds = tasks.RegisteredKinds
	// CensusFamilyKinds lists the adversary-family filter kinds a
	// census sweep accepts.
	CensusFamilyKinds = census.FamilyKinds
)

// TaskSpec is a registered, serializable task identity (kind plus
// integer parameters) the census, store, serve and fabric layers sweep
// and route by.
type TaskSpec = tasks.Spec
