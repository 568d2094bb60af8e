// Package hetgraph is a vertex-centric graph processing framework for a
// heterogeneous CPU + Intel Xeon Phi (MIC) node, reproducing Chen, Huo,
// Ren, Jain & Agrawal, "Efficient and Simplified Parallel Graph Processing
// over CPU and MIC" (IPDPS 2015).
//
// Applications are written as three user functions — message generation,
// message processing, and vertex updating — over a BSP iteration (§III of
// the paper). The runtime provides:
//
//   - a Condensed Static Buffer that stores messages SIMD-aligned per
//     degree-sorted vertex group, enabling vectorized message reduction at
//     low memory cost;
//   - locking and pipelined (worker/mover) message-generation schemes;
//   - dynamic intra-device load balancing;
//   - hybrid Metis-style CPU/MIC graph partitioning with MPI-symmetric-mode
//     style message exchange.
//
// Because this reproduction targets commodity hardware, the devices are
// simulated: all data structures and concurrency run for real (goroutines,
// lock-free queues, real buffers), while per-device time is computed by a
// calibrated cost model from the counted events of that real execution.
// See DESIGN.md and the internal/machine package documentation.
//
// # Device groups
//
// The paper's CPU+MIC pair generalizes to an N-rank device group: a
// heterogeneous run executes over any ordered set of device specs, one
// rank per spec, exchanging messages all-to-all each superstep. Pass one
// Options per rank to RunF32Hetero (or the app-specific hetero runners),
// or a single Options whose Devices field lists the group. The classic
// two-rank CPU+MIC topology is simply the 2-element group and keeps its
// original behavior exactly. Partition an input graph across a group with
// PartitionN using DeviceWeights for spec-proportional workload ratios.
// Fault tolerance — blame via majority quorum, degraded continuation on
// the surviving subset, and epoch-fenced rejoin back to full membership —
// operates over any group size; see docs/architecture.md for the model
// and docs/robustness.md for the fault lifecycle.
//
// Quick start:
//
//	g, _ := hetgraph.GeneratePowerLaw(hetgraph.DefaultPowerLaw(10000))
//	wg, _ := hetgraph.AddRandomWeights(g, 0, 10, 1)
//	app := hetgraph.NewSSSP(0)
//	res, _ := hetgraph.Run(app, wg, hetgraph.Options{
//	    Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, Vectorized: true,
//	})
//	fmt.Println(res.SimSeconds, app.Dist[42])
package hetgraph

import (
	"fmt"
	"math"

	"hetgraph/internal/apps"
	"hetgraph/internal/autotune"
	"hetgraph/internal/checkpoint"
	"hetgraph/internal/comm"
	"hetgraph/internal/core"
	"hetgraph/internal/csb"
	"hetgraph/internal/fault"
	"hetgraph/internal/gen"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/metis"
	"hetgraph/internal/metrics"
	"hetgraph/internal/ompbase"
	"hetgraph/internal/partition"
	"hetgraph/internal/seqref"
	"hetgraph/internal/trace"
	"hetgraph/internal/vec"
)

// Graph and construction.
type (
	// Graph is a directed graph in CSR form.
	Graph = graph.CSR
	// VertexID indexes a vertex.
	VertexID = graph.VertexID
	// GraphBuilder accumulates edges into a Graph.
	GraphBuilder = graph.Builder
	// GraphStats summarizes degree structure.
	GraphStats = graph.Stats
)

// NewGraphBuilder creates a builder for n vertices.
func NewGraphBuilder(n int, weighted bool) *GraphBuilder { return graph.NewBuilder(n, weighted) }

// LoadGraph reads a graph file in either the adjacency-list text format or
// the binary CSR format (auto-detected).
func LoadGraph(path string) (*Graph, error) { return graph.LoadAuto(path) }

// SaveGraph writes a graph in the adjacency-list text format.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// SaveGraphBinary writes a graph in the compact binary CSR format, which
// loads much faster for large graphs.
func SaveGraphBinary(path string, g *Graph) error { return graph.SaveBinaryFile(path, g) }

// Stats computes degree statistics.
func Stats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// PaperExampleGraph returns the 16-vertex example of the paper's Figure 1.
func PaperExampleGraph() *Graph { return graph.PaperExample() }

// Synthetic workload generators.
type (
	// PowerLawConfig parameterizes the Pokec-like generator.
	PowerLawConfig = gen.PowerLawConfig
	// CommunityConfig parameterizes the DBLP-like generator.
	CommunityConfig = gen.CommunityConfig
	// DAGConfig parameterizes the dense random DAG generator.
	DAGConfig = gen.DAGConfig
)

// DefaultPowerLaw returns the Pokec-substitute configuration for n vertices.
func DefaultPowerLaw(n int) PowerLawConfig { return gen.DefaultPowerLaw(n) }

// DefaultCommunity returns the DBLP-substitute configuration for n vertices.
func DefaultCommunity(n int) CommunityConfig { return gen.DefaultCommunity(n) }

// DefaultDAG returns the TopoSort DAG configuration.
func DefaultDAG(n, m int) DAGConfig { return gen.DefaultDAG(n, m) }

// GeneratePowerLaw builds a directed power-law graph.
func GeneratePowerLaw(cfg PowerLawConfig) (*Graph, error) { return gen.PowerLaw(cfg) }

// GenerateCommunity builds an undirected community graph (directed form).
func GenerateCommunity(cfg CommunityConfig) (*Graph, error) { return gen.Community(cfg) }

// GenerateDAG builds a random DAG.
func GenerateDAG(cfg DAGConfig) (*Graph, error) { return gen.RandomDAG(cfg) }

// GenerateUniform builds an Erdős–Rényi-style random directed multigraph.
func GenerateUniform(n, m int, seed int64) (*Graph, error) { return gen.Uniform(n, m, seed) }

// RMATConfig parameterizes the Graph500-style R-MAT generator.
type RMATConfig = gen.RMATConfig

// DefaultRMAT returns the Graph500 parameterization at the given scale
// (2^scale vertices, 16 edges per vertex).
func DefaultRMAT(scale int) RMATConfig { return gen.DefaultRMAT(scale) }

// GenerateRMAT builds an R-MAT directed multigraph.
func GenerateRMAT(cfg RMATConfig) (*Graph, error) { return gen.RMAT(cfg) }

// AddRandomWeights attaches uniform random weights in (lo, hi] to g.
func AddRandomWeights(g *Graph, lo, hi float32, seed int64) (*Graph, error) {
	return gen.WithWeights(g, lo, hi, seed)
}

// Devices and execution.
type (
	// DeviceSpec models one compute device.
	DeviceSpec = machine.DeviceSpec
	// AppProfile describes an application's per-event costs.
	AppProfile = machine.AppProfile
	// Options configures an engine run.
	Options = core.Options
	// Result reports a single-device run.
	Result = core.Result
	// HeteroResult reports a device-group (hetero) run; Dev holds one
	// Result per rank.
	HeteroResult = core.HeteroResult
	// Scheme selects the message-generation scheme.
	Scheme = core.Scheme
	// InsertMode selects the CSB column mapping policy.
	InsertMode = csb.InsertMode
	// AppF32 is a float32-message vertex program.
	AppF32 = core.AppF32
	// Direction selects the traversal direction (push, pull, or auto).
	Direction = core.Direction
	// PullerF32 is optionally implemented by AppF32 programs that support
	// pull/bottom-up traversal.
	PullerF32 = core.PullerF32
	// VecArrayF32 is an aligned SIMD vector array (used by ReduceVec).
	VecArrayF32 = vec.ArrayF32
	// OMPResult reports an OpenMP-baseline run.
	OMPResult = ompbase.Result
)

// Generation schemes (§IV-C).
const (
	SchemeLocking   = core.SchemeLocking
	SchemePipelined = core.SchemePipelined
)

// CSB column mapping policies (§IV-B).
const (
	CSBDynamic  = csb.Dynamic
	CSBOneToOne = csb.OneToOne
)

// Traversal directions for Options.Direction. DirectionAuto switches between
// top-down (push) and bottom-up (pull) per superstep per rank using a
// frontier-occupancy heuristic; see docs/architecture.md.
const (
	DirectionPush = core.DirectionPush
	DirectionPull = core.DirectionPull
	DirectionAuto = core.DirectionAuto
)

// StragglerPolicy selects the gray-failure mitigation for group runs
// (Options.StragglerPolicy): what the supervisor does when a rank's EWMA
// superstep latency stays over Options.StragglerThreshold long enough to
// confirm it as a straggler. See docs/robustness.md.
type StragglerPolicy = core.StragglerPolicy

// Straggler mitigation policies for Options.StragglerPolicy.
const (
	StragglerOff         = core.StragglerOff
	StragglerDemote      = core.StragglerDemote
	StragglerDemoteRehab = core.StragglerDemoteRehab
)

// ParseStragglerPolicy parses "off", "demote", or "demote-rehab".
func ParseStragglerPolicy(s string) (StragglerPolicy, error) { return core.ParseStragglerPolicy(s) }

// DefaultGenBatch is the recommended Options.GenBatchSize for batched
// pipelined message generation; the default (0 or 1) is the paper's
// per-element SPSC handoff. See docs/pipeline.md.
const DefaultGenBatch = core.DefaultGenBatch

// CPU returns the modeled Xeon E5-2680 (16 cores, SSE4.2).
func CPU() DeviceSpec { return machine.CPU() }

// MIC returns the modeled Xeon Phi SE10P (60x4 threads, IMCI).
func MIC() DeviceSpec { return machine.MIC() }

// Run executes a float32-message application on one modeled device.
func Run(app AppF32, g *Graph, opt Options) (Result, error) { return core.RunF32(app, g, opt) }

// RunF32Hetero executes a float32-message application across an N-rank
// device group. Each Options value configures one rank, in rank order;
// alternatively a single Options with Devices set declares the whole group
// (every rank inherits the remaining fields). All ranks run the same BSP
// superstep in lockstep, exchanging boundary messages all-to-all.
//
// Fault tolerance composes with the group: with checkpointing enabled a
// failed rank is identified by majority quorum, the survivors restore the
// last checkpoint and continue over the surviving subset, and with
// Options.Rejoin the failed rank re-enters at its recovery superstep.
// HeteroResult.Dev holds one Result per rank.
func RunF32Hetero(app AppF32, g *Graph, assign []int32, deviceOpts ...Options) (HeteroResult, error) {
	return core.RunF32Hetero(app, g, assign, deviceOpts...)
}

// RunOMP executes the OpenMP-style baseline for comparison (§V-C).
func RunOMP(app AppF32, g *Graph, dev DeviceSpec, threads, maxIters int) (OMPResult, error) {
	return ompbase.RunF32(app, g, dev, threads, maxIters)
}

// Fault tolerance (see docs/robustness.md).
type (
	// FaultPlan is a deterministic schedule of injected faults.
	FaultPlan = fault.Plan
	// FaultEvent is one scheduled fault (rank, kind, superstep, ...).
	FaultEvent = fault.Event
	// FaultInjector executes a plan; set it on Options.Fault.
	FaultInjector = fault.Injector
	// FaultKind is the fault class (drop, delay, fail, panic).
	FaultKind = fault.Kind
	// FaultPhase names the engine phase a panic fault fires in.
	FaultPhase = fault.Phase
	// DeviceFailedError reports a rank that died, stalled past the
	// exchange deadline, or exhausted link retries in a hetero run.
	DeviceFailedError = comm.DeviceFailedError
	// PartitionedError reports a network partition that split the device
	// group in two: the quorum (majority) side continues degraded, the
	// minority side is fenced and aborts with this error naming both sides.
	PartitionedError = comm.PartitionedError
	// LinkSeveredError reports the links one rank lost to an active
	// partition (the per-rank view the supervisor folds into a
	// PartitionedError when every side agrees on the split).
	LinkSeveredError = comm.LinkSeveredError
	// LinkStat is one directed link's whole-run traffic, exposed on
	// HeteroResult.Links.
	LinkStat = comm.LinkStat
	// IntegrityStats aggregates wire-integrity counters (corrupt/dup/stale
	// drops, retransmits), exposed on HeteroResult.Integrity.
	IntegrityStats = comm.IntegrityStats
	// InvalidOptionsError reports a rejected Options field or nil
	// app/graph argument at Run entry.
	InvalidOptionsError = core.InvalidOptionsError
	// RunAbortedError reports a run stopped cooperatively via Options.Abort
	// at a superstep boundary; the accompanying result is the partial run.
	RunAbortedError = core.RunAbortedError
	// Snapshotter is implemented by applications whose vertex state can be
	// checkpointed (required when Options.CheckpointEvery > 0). The bundled
	// PageRank, BFS, SSSP, and ConnectedComponents apps implement it.
	Snapshotter = checkpoint.Snapshotter
	// AbortController owns an Options.Abort channel: explicit Abort calls,
	// wall-clock deadlines (AbortAfter), and parent channels (Follow) all
	// converge on the one channel the engine watches. hetgraph-run's signal
	// handler and -job-timeout, and hetgraph-serve's per-job deadlines,
	// cancellation, and drain all go through it.
	AbortController = core.AbortController
	// DaemonFaults is a registry of daemon-level chaos hooks (park a
	// worker, fail a journal append) used by hetgraph-serve's overload and
	// crash tests; see fault.Point* for the hook points.
	DaemonFaults = fault.DaemonFaults
)

// NewAbortController creates a controller whose channel is open; set
// Options.Abort to its Channel.
func NewAbortController() *AbortController { return core.NewAbortController() }

// NewDaemonFaults creates an empty daemon fault-hook registry.
func NewDaemonFaults() *DaemonFaults { return fault.NewDaemonFaults() }

// Fault kinds and phases for hand-built plans.
const (
	FaultDrop      = fault.KindDrop
	FaultDelay     = fault.KindDelay
	FaultFail      = fault.KindFail
	FaultPanic     = fault.KindPanic
	FaultFlaky     = fault.KindFlaky
	FaultRecover   = fault.KindRecover
	FaultSlow      = fault.KindSlow
	FaultGSlow     = fault.KindGSlow
	FaultCorrupt   = fault.KindCorrupt
	FaultDup       = fault.KindDup
	FaultReorder   = fault.KindReorder
	FaultPartition = fault.KindPartition
	FaultHeal      = fault.KindHeal

	FaultPhaseGenerate = fault.PhaseGenerate
	FaultPhaseProcess  = fault.PhaseProcess
	FaultPhaseUpdate   = fault.PhaseUpdate
)

// ParseFaultPlan parses a fault-plan spec like
// "rank1:drop@3;rank0:delay@2:5ms;rank1:fail@2x3;rank0:panic@4:generate".
func ParseFaultPlan(spec string) (FaultPlan, error) { return fault.Parse(spec) }

// NewFaultInjector builds an injector for a validated plan.
func NewFaultInjector(p FaultPlan) (*FaultInjector, error) { return fault.NewInjector(p) }

// RandomFaultPlan draws n valid fault events with supersteps below maxStep,
// deterministically from seed — handy for chaos testing.
func RandomFaultPlan(seed, maxStep int64, n int) FaultPlan { return fault.Random(seed, maxStep, n) }

// RandomGroupFaultPlan is RandomFaultPlan for an N-rank device group: it can
// additionally draw wire-integrity faults (corrupt, dup, reorder) and
// two-sided partitions with paired heals over the given rank count.
func RandomGroupFaultPlan(seed, maxStep int64, n, ranks int) FaultPlan {
	return fault.RandomGroup(seed, maxStep, n, ranks)
}

// Durable checkpointing (see docs/robustness.md). A heterogeneous run with
// Options.CheckpointDir set commits every in-memory checkpoint to disk
// atomically; Options.Resume cold-starts from the newest intact generation.
type (
	// CheckpointStore persists snapshot generations to a directory with
	// atomic commits, CRC32C verification, a manifest, and retention.
	CheckpointStore = checkpoint.Store
	// CheckpointStoreOptions configures OpenCheckpointStore.
	CheckpointStoreOptions = checkpoint.StoreOptions
	// CheckpointSnapshot is one captured superstep (frontiers + app state).
	CheckpointSnapshot = checkpoint.Snapshot
	// CheckpointGen describes one on-disk generation (manifest entry).
	CheckpointGen = checkpoint.Gen
	// CheckpointStoreError reports a failed durable-store operation; a
	// hetero run aborts (rather than degrades) when it sees one, since the
	// shared store is what recovery itself depends on.
	CheckpointStoreError = checkpoint.StoreError
	// CorruptInputError reports malformed graph-file input, attributed to
	// the offending line for the text format.
	CorruptInputError = graph.CorruptInputError
	// CheckpointJournal is the append-only CRC-framed record log the serve
	// daemon journals job state through (see docs/serving.md); it lives in
	// the same directory protocol family as the CheckpointStore.
	CheckpointJournal = checkpoint.Journal
)

// OpenCheckpointJournal opens (creating or replaying) the journal in dir for
// inspection or custom daemons; hetgraph-serve opens its own.
func OpenCheckpointJournal(dir string) (*CheckpointJournal, error) {
	return checkpoint.OpenJournal(dir, nil)
}

// DefaultCheckpointRetain is the default number of newest on-disk
// checkpoint generations kept by a CheckpointStore.
const DefaultCheckpointRetain = checkpoint.DefaultRetain

// ErrNoCheckpoint is wrapped by CheckpointStore.Load (and surfaced through
// Options.Resume) when the directory holds no decodable checkpoint.
var ErrNoCheckpoint = checkpoint.ErrNoCheckpoint

// OpenCheckpointStore opens (or creates) a durable checkpoint directory for
// direct inspection or custom recovery tooling. Engine runs open their own
// store from Options.CheckpointDir; most callers never need this.
func OpenCheckpointStore(dir string, opts CheckpointStoreOptions) (*CheckpointStore, error) {
	return checkpoint.OpenStore(dir, opts)
}

// Partitioning (§IV-E).
type (
	// Ratio is the CPU:MIC workload ratio.
	Ratio = partition.Ratio
	// PartitionMethod identifies a partitioning scheme.
	PartitionMethod = partition.Method
)

// Partitioning methods.
const (
	PartitionContinuous = partition.MethodContinuous
	PartitionRoundRobin = partition.MethodRoundRobin
	PartitionHybrid     = partition.MethodHybrid
)

// Partition computes a device assignment with the given method at ratio r.
func Partition(method PartitionMethod, g *Graph, r Ratio) ([]int32, error) {
	return partition.Make(method, g, r)
}

// PartitionN computes an N-rank device assignment with the given method,
// splitting the edge workload in proportion to weights — one positive
// integer per rank. The two-rank Ratio form is PartitionN with weights
// {A, B}; use DeviceWeights for spec-proportional weights.
func PartitionN(method PartitionMethod, g *Graph, weights []int) ([]int32, error) {
	return partition.MakeN(method, g, weights)
}

// DeviceWeights derives spec-proportional partition weights for a device
// group: each rank's weight is its hardware thread count (the CPU+MIC pair
// yields 16:240).
func DeviceWeights(devs ...DeviceSpec) []int {
	w := make([]int, len(devs))
	for i, d := range devs {
		w[i] = d.Threads()
	}
	return w
}

// PartitionHybridBlocks runs the hybrid scheme with an explicit block count
// and Metis options.
func PartitionHybridBlocks(g *Graph, r Ratio, blocks int) ([]int32, error) {
	return partition.Hybrid(g, r, blocks, metis.DefaultOptions())
}

// CrossEdges counts edges crossing the device boundary under assign.
func CrossEdges(g *Graph, assign []int32) int64 { return partition.CrossEdges(g, assign) }

// SavePartition / LoadPartition persist device assignments (the paper's
// "graph partitioning file").
func SavePartition(path string, assign []int32) error { return partition.SaveFile(path, assign) }

// LoadPartition reads a device assignment file.
func LoadPartition(path string) ([]int32, error) { return partition.LoadFile(path) }

// Built-in applications (§V-B).
type (
	// PageRank ranks vertices by link structure.
	PageRank = apps.PageRank
	// BFS is breadth-first traversal.
	BFS = apps.BFS
	// SSSP is single-source shortest paths (the paper's running example).
	SSSP = apps.SSSP
	// TopoSort is topological sorting of a DAG.
	TopoSort = apps.TopoSort
	// SemiClustering finds overlapping interaction clusters.
	SemiClustering = apps.SemiClustering
	// ConnectedComponents labels weakly connected components.
	ConnectedComponents = apps.ConnectedComponents
	// LabelPropagation detects communities by majority label propagation.
	LabelPropagation = apps.LabelPropagation
	// LPAMsg is LabelPropagation's message type (a vote tally).
	LPAMsg = apps.LPAMsg
	// SCMsg is Semi-Clustering's message type.
	SCMsg = apps.SCMsg
	// SemiClusterValue is one semi-cluster.
	SemiClusterValue = apps.SemiCluster
)

// NewPageRank creates a PageRank app (damping 0.85; run length set by
// Options.MaxIterations).
func NewPageRank() *PageRank { return apps.NewPageRank() }

// NewBFS creates a BFS app from the given source.
func NewBFS(source VertexID) *BFS { return apps.NewBFS(source) }

// NewSSSP creates an SSSP app from the given source (weighted graph).
func NewSSSP(source VertexID) *SSSP { return apps.NewSSSP(source) }

// NewTopoSort creates a TopoSort app (DAG input).
func NewTopoSort() *TopoSort { return apps.NewTopoSort() }

// NewConnectedComponents creates a weakly-connected-components app
// (min-label propagation; run on a symmetrized graph for undirected
// semantics).
func NewConnectedComponents() *ConnectedComponents { return apps.NewConnectedComponents() }

// NewLabelPropagation creates a community-detection app (synchronous LPA;
// structured messages, so it runs on the generic path like Semi-Clustering).
func NewLabelPropagation() *LabelPropagation { return apps.NewLabelPropagation() }

// RunLabelPropagation executes Label Propagation on one modeled device.
// Bound the run with Options.MaxIterations (synchronous LPA can oscillate).
func RunLabelPropagation(app *LabelPropagation, g *Graph, opt Options) (Result, error) {
	return core.RunGeneric[apps.LPAMsg](app, g, opt)
}

// RunLabelPropagationHetero executes Label Propagation across a device
// group (one Options per rank, or a single Options with Devices set).
func RunLabelPropagationHetero(app *LabelPropagation, g *Graph, assign []int32, deviceOpts ...Options) (HeteroResult, error) {
	return core.RunGenericHetero[apps.LPAMsg](app, g, assign, deviceOpts...)
}

// NewSemiClustering creates a Semi-Clustering app.
func NewSemiClustering(maxClusters, maxMembers int, boundaryFactor float32) *SemiClustering {
	return apps.NewSemiClustering(maxClusters, maxMembers, boundaryFactor)
}

// RunSemiClustering executes Semi-Clustering on one modeled device (it uses
// the structured-message path, not SIMD reduction).
func RunSemiClustering(app *SemiClustering, g *Graph, opt Options) (Result, error) {
	return core.RunGeneric[apps.SCMsg](app, g, opt)
}

// RunSemiClusteringHetero executes Semi-Clustering across a device group
// (one Options per rank, or a single Options with Devices set).
func RunSemiClusteringHetero(app *SemiClustering, g *Graph, assign []int32, deviceOpts ...Options) (HeteroResult, error) {
	return core.RunGenericHetero[apps.SCMsg](app, g, assign, deviceOpts...)
}

// VerifyAgainstSequential checks an already-run application's vertex state
// against an independent classical reference implementation (Dijkstra,
// queue BFS, power iteration, Kahn, union-find). It returns whether the
// result matches and a human-readable detail line. iters must equal the
// parallel run's iteration bound for fixed-length apps (PageRank).
func VerifyAgainstSequential(appName string, app AppF32, g *Graph, source VertexID, iters int) (bool, string) {
	switch a := app.(type) {
	case *SSSP:
		want := seqref.ClassicSSSP(g, source)
		for v := range want {
			if a.Dist[v] != want[v] {
				return false, fmt.Sprintf("sssp: dist[%d] = %v, Dijkstra says %v", v, a.Dist[v], want[v])
			}
		}
		return true, fmt.Sprintf("sssp distances match Dijkstra on %d vertices", g.NumVertices())
	case *BFS:
		want := seqref.ClassicBFS(g, source)
		for v := range want {
			if a.Levels[v] != want[v] {
				return false, fmt.Sprintf("bfs: level[%d] = %d, reference says %d", v, a.Levels[v], want[v])
			}
		}
		return true, fmt.Sprintf("bfs levels match reference on %d vertices", g.NumVertices())
	case *TopoSort:
		if !seqref.ValidTopoOrder(g, a.Order) {
			return false, "toposort: order violates an edge or is not a permutation"
		}
		return true, fmt.Sprintf("toposort order valid for all %d edges", g.NumEdges())
	case *PageRank:
		if iters <= 0 {
			return false, "pagerank verification needs the iteration count"
		}
		want := seqref.ClassicPageRank(g, 0.85, iters)
		for v := range want {
			diff := math.Abs(float64(a.Ranks[v] - want[v]))
			if diff > 1e-3*math.Max(1, float64(want[v])) {
				return false, fmt.Sprintf("pagerank: rank[%d] = %v, power iteration says %v", v, a.Ranks[v], want[v])
			}
		}
		return true, fmt.Sprintf("pagerank matches %d power iterations (tol 1e-3)", iters)
	case *ConnectedComponents:
		want := seqref.ClassicWCC(g)
		for v := range want {
			if a.Labels[v] != float32(want[v]) {
				return false, fmt.Sprintf("cc: label[%d] = %v, union-find says %d", v, a.Labels[v], want[v])
			}
		}
		return true, fmt.Sprintf("component labels match union-find (%d components)", a.NumComponents())
	default:
		return false, fmt.Sprintf("no sequential reference for app %q", appName)
	}
}

// Tracing.
type (
	// TraceRecorder collects a per-superstep, per-phase timeline of a run;
	// attach one via Options.Trace.
	TraceRecorder = trace.Recorder
	// TraceSample is one phase of one superstep on one device.
	TraceSample = trace.Sample
	// TraceSummary aggregates a recording.
	TraceSummary = trace.Summary
)

// NewTraceRecorder creates an empty run-timeline recorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// FormatTraceSummary renders a trace summary as text.
func FormatTraceSummary(s TraceSummary) string { return trace.FormatSummary(s) }

// Run-report metrics (see docs/observability.md). Unlike tracing, which
// records only simulated device time, the metrics layer records measured
// host wall-clock per phase alongside the simulated time, plus an
// operational event log (checkpoints, failures, degradation, resume).
type (
	// MetricsSink receives wall-clock phase samples and runtime events;
	// attach one via Options.Metrics. nil disables collection with one
	// branch per superstep and no allocation on the hot path.
	MetricsSink = metrics.Sink
	// MetricsCollector is the standard thread-safe MetricsSink; it also
	// backs the -debug-addr HTTP endpoints.
	MetricsCollector = metrics.Collector
	// MetricsPhaseSample is one phase of one superstep on one device, with
	// both measured wall time and simulated device time.
	MetricsPhaseSample = metrics.PhaseSample
	// MetricsEvent is one timestamped operational event.
	MetricsEvent = metrics.Event
	// RunReport is the versioned, machine-readable record of one run.
	RunReport = metrics.RunReport
	// RunReportGraph fingerprints the input graph inside a RunReport.
	RunReportGraph = metrics.GraphInfo
	// RunReportConfig echoes one rank's engine options inside a RunReport.
	RunReportConfig = metrics.RunConfig
	// RunReportDevice is one device's whole-run aggregate inside a RunReport.
	RunReportDevice = metrics.DeviceReport
	// RunReportTotals is the run-level outcome inside a RunReport.
	RunReportTotals = metrics.Totals
	// RunReportPhases is a simulated per-phase breakdown inside a RunReport.
	RunReportPhases = metrics.PhaseSeconds
	// RunReportLink is one directed link's traffic/retransmit record inside
	// a RunReport.
	RunReportLink = metrics.LinkActivity
	// RunReportIntegrity aggregates wire-integrity counters inside the
	// metrics layer (mirrors IntegrityStats).
	RunReportIntegrity = metrics.IntegritySnapshot
	// DebugServer is the HTTP listener behind -debug-addr (pprof, expvar,
	// Prometheus text metrics).
	DebugServer = metrics.DebugServer
)

// ReportVersion is the current RunReport schema version (see
// docs/observability.md for the compatibility rule).
const ReportVersion = metrics.ReportVersion

// NewMetricsCollector creates an empty metrics collector.
func NewMetricsCollector() *MetricsCollector { return metrics.NewCollector() }

// WriteRunReport writes a report as indented JSON to path.
func WriteRunReport(path string, r *RunReport) error { return metrics.WriteReportFile(path, r) }

// ReadRunReport reads and validates a report, rejecting unknown schema
// versions.
func ReadRunReport(path string) (*RunReport, error) { return metrics.ReadReportFile(path) }

// StartDebugServer starts an HTTP listener on addr serving /debug/pprof/,
// /debug/vars (expvar), and /metrics (Prometheus text format) backed by the
// given collector. Close the returned server when done.
func StartDebugServer(addr string, c *MetricsCollector) (*DebugServer, error) {
	return metrics.StartDebugServer(addr, c)
}

// Auto-tuning (the paper's §VII future work, implemented).
type (
	// TuneBudget bounds auto-tuning probe effort.
	TuneBudget = autotune.Budget
	// SplitResult reports a worker/mover tuning outcome.
	SplitResult = autotune.SplitResult
	// RatioResult reports a partitioning-ratio tuning outcome.
	RatioResult = autotune.RatioResult
	// BatchResult reports a generation-batch-size tuning outcome.
	BatchResult = autotune.BatchResult
	// BatchProbe is one candidate batch size's measurement.
	BatchProbe = autotune.BatchProbe
)

// TuneWorkerMoverSplit searches the pipelined scheme's worker/mover split
// for one device by probing short real runs of the application.
func TuneWorkerMoverSplit(newApp func() AppF32, g *Graph, dev DeviceSpec, budget TuneBudget) (SplitResult, error) {
	return autotune.TuneSplit(autotune.AppFactory(newApp), g, dev, budget)
}

// TunePartitionRatio searches the CPU:MIC workload ratio for heterogeneous
// execution under the given partitioning method.
func TunePartitionRatio(newApp func() AppF32, g *Graph, method PartitionMethod, optCPU, optMIC Options, budget TuneBudget) (RatioResult, error) {
	return autotune.TuneRatio(autotune.AppFactory(newApp), g, method, optCPU, optMIC, budget)
}

// TuneGenBatchSize searches the pipelined scheme's worker→mover handoff
// batch size (Options.GenBatchSize) for one device by probing short real
// runs of the application, including the per-element baseline (batch 1).
func TuneGenBatchSize(newApp func() AppF32, g *Graph, dev DeviceSpec, budget TuneBudget) (BatchResult, error) {
	return autotune.TuneGenBatch(autotune.AppFactory(newApp), g, dev, budget)
}
