// Package core is the paper's primary contribution: the vertex-centric BSP
// runtime of Fig. 2. Each iteration runs message generation (locking or
// pipelined), an implicit cross-device remote-message exchange, message
// processing (SIMD reduction over the Condensed Static Buffer where the
// application's reduction allows it), and vertex updating, with dynamic
// intra-device load balancing in every step.
//
// Applications implement the three user functions of §III —
// GenerateMessages, ProcessMessages, UpdateVertex — through the App
// interfaces below. Float32-message applications (PageRank, BFS, SSSP,
// TopoSort) use AppF32 and get CSB storage plus SIMD reduction;
// applications with structured messages (Semi-Clustering) use AppGeneric
// and a per-vertex list buffer, exactly as the paper excludes them from
// SIMD reduction.
package core

import (
	"fmt"
	"time"

	"hetgraph/internal/csb"
	"hetgraph/internal/fault"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/metrics"
	"hetgraph/internal/pipeline"
	"hetgraph/internal/trace"
	"hetgraph/internal/vec"
)

// AppF32 is a vertex program whose messages are float32 values with an
// associative, commutative reduction.
type AppF32 interface {
	// Profile describes the app's per-event costs for the device model.
	Profile() machine.AppProfile
	// Init (re)initializes vertex state for graph g and returns the
	// initially active vertices.
	Init(g *graph.CSR) []graph.VertexID
	// Generate is the user generate_messages(): called once per active
	// vertex per iteration; it must emit every outgoing message.
	Generate(v graph.VertexID, emit func(dst graph.VertexID, val float32))
	// Identity is the reduction identity stored in empty buffer cells.
	Identity() float32
	// ReduceVec is the user process_messages() on the SIMD path: it must
	// reduce rows [0, rows) of arr into row 0 using vec operations.
	ReduceVec(arr *vec.ArrayF32, rows int)
	// ReduceScalar is the scalar reduction used on the no-vectorization
	// path and for combining remote messages.
	ReduceScalar(a, b float32) float32
	// Update is the user update_vertex(): applies the reduced message and
	// reports whether the vertex is active in the next iteration.
	Update(v graph.VertexID, msg float32) bool
}

// AppGeneric is a vertex program with structured messages of type T, which
// cannot use SIMD reduction (§III).
type AppGeneric[T any] interface {
	Profile() machine.AppProfile
	Init(g *graph.CSR) []graph.VertexID
	Generate(v graph.VertexID, emit func(dst graph.VertexID, val T))
	// Combine merges two messages for the same destination; used for the
	// remote-buffer combination before a cross-device exchange.
	Combine(a, b T) T
	// Process reduces a vertex's received messages to one result.
	Process(v graph.VertexID, msgs []T) T
	Update(v graph.VertexID, res T) bool
}

// FixedActiveSet is optionally implemented by applications whose active set
// never changes — PageRank, where "all vertices generate messages along all
// edges every iteration" (§V-C). The engine then reuses the initial active
// set each iteration instead of deriving it from updates, and the run is
// bounded by MaxIterations.
type FixedActiveSet interface {
	FixedActiveSet() bool
}

// IsFixedActive reports whether app declares a fixed active set.
func IsFixedActive(app any) bool {
	f, ok := app.(FixedActiveSet)
	return ok && f.FixedActiveSet()
}

// Direction selects the traversal direction policy for applications that
// support pull/bottom-up sweeps (those implementing PullerF32 — BFS and
// SSSP among the bundled apps).
type Direction int

const (
	// DirectionPush is the paper's original scheme: active vertices insert
	// messages along their out-edges (generate → exchange → process →
	// update). The default, and the only mode for apps without PullerF32.
	DirectionPush Direction = iota
	// DirectionPull runs every superstep bottom-up: instead of inserting
	// local messages, the process phase scans candidate vertices' in-edges
	// and reads frontier parents' state directly. Cross-rank (cut-edge)
	// influence still travels as messages. Requires PullerF32.
	DirectionPull
	// DirectionAuto switches per superstep per rank with the GAS-style
	// heuristic: push → pull when the frontier's out-edges exceed the
	// unexplored out-edges divided by PullAlpha; pull → push when frontier
	// occupancy falls below the rank's vertex count divided by PullBeta.
	// Falls back to push for apps without PullerF32.
	DirectionAuto
)

func (d Direction) String() string {
	switch d {
	case DirectionPush:
		return "push"
	case DirectionPull:
		return "pull"
	case DirectionAuto:
		return "auto"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Default thresholds of the auto direction switch (Beamer's α and β;
// tunable via Options.PullAlpha / Options.PullBeta).
const (
	DefaultPullAlpha = 14.0
	DefaultPullBeta  = 24.0
)

// StragglerPolicy selects how a heterogeneous run responds when the health
// scorer confirms a rank as a straggler (alive but persistently slow — a
// gray failure, distinct from the dead-rank exchange-deadline path).
type StragglerPolicy int

const (
	// StragglerOff disables gray-failure mitigation: the health scorer
	// still classifies ranks (surfaced in HeteroResult.SuspectRanks when a
	// threshold is set), but the group keeps waiting for stragglers at
	// every barrier. The default.
	StragglerOff StragglerPolicy = iota
	// StragglerDemote soft-degrades a confirmed straggler at the next
	// checkpoint barrier: its vertices move to the healthy survivors and it
	// becomes a non-owning member, but it is never re-admitted.
	StragglerDemote
	// StragglerDemoteRehab soft-degrades like StragglerDemote and then
	// rehabilitates the rank — restores its vertices via the rejoin/replay
	// path — once its latency has stayed normal for the probation window.
	StragglerDemoteRehab
)

func (p StragglerPolicy) String() string {
	switch p {
	case StragglerOff:
		return "off"
	case StragglerDemote:
		return "demote"
	case StragglerDemoteRehab:
		return "demote-rehab"
	default:
		return fmt.Sprintf("StragglerPolicy(%d)", int(p))
	}
}

// ParseStragglerPolicy parses a policy name as used by the CLI flag.
func ParseStragglerPolicy(s string) (StragglerPolicy, error) {
	switch s {
	case "off", "":
		return StragglerOff, nil
	case "demote":
		return StragglerDemote, nil
	case "demote-rehab":
		return StragglerDemoteRehab, nil
	default:
		return 0, fmt.Errorf("core: unknown straggler policy %q (want off|demote|demote-rehab)", s)
	}
}

// Scheme selects the message-generation scheme of §IV-C.
type Scheme int

const (
	// SchemeLocking inserts messages directly under per-column
	// synchronization.
	SchemeLocking Scheme = iota
	// SchemePipelined splits threads into workers and movers connected by
	// SPSC queues.
	SchemePipelined
)

func (s Scheme) String() string {
	switch s {
	case SchemeLocking:
		return "lock"
	case SchemePipelined:
		return "pipe"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Options configures one device's engine.
type Options struct {
	// Dev is the modeled device this engine simulates time for.
	Dev machine.DeviceSpec
	// Devices, when non-empty, declares an N-rank device group for a hetero
	// run from a single Options value: rank r runs on Devices[r] and every
	// rank inherits the remaining fields. Mutually exclusive with passing
	// one Options per rank; ignored by single-device runs.
	Devices []machine.DeviceSpec
	// TraceLabel overrides the device name used in trace and metrics phase
	// samples. Empty means Dev.Name; hetero runs auto-disambiguate duplicate
	// names within a group as name#rank so per-rank output stays separable.
	TraceLabel string
	// Scheme is the message-generation scheme.
	Scheme Scheme
	// Vectorized enables the SIMD reduction path (ignored for apps whose
	// profile is not reducible).
	Vectorized bool
	// K is the CSB vertex-group width factor (default 2).
	K int
	// CSBMode selects dynamic column allocation (default) or the
	// one-to-one ablation mapping.
	CSBMode csb.InsertMode
	// Direction selects push (default), pull, or automatic per-superstep
	// push/pull switching for traversal apps implementing PullerF32.
	// DirectionPull with a push-only app is an InvalidOptionsError;
	// DirectionAuto silently runs push for push-only apps. Per-rank
	// decisions in a device group are autonomous and compose with the
	// degrade/rejoin lifecycle (see docs/architecture.md).
	Direction Direction
	// PullAlpha tunes the auto push→pull switch threshold: pull when
	// frontier out-edges > unexplored out-edges / PullAlpha. 0 means
	// DefaultPullAlpha.
	PullAlpha float64
	// PullBeta tunes the auto pull→push switch-back threshold: push when
	// frontier occupancy < rank vertices / PullBeta. 0 means
	// DefaultPullBeta.
	PullBeta float64
	// MaxIterations bounds the BSP loop; 0 means DefaultMaxIterations.
	MaxIterations int
	// Threads overrides the device's hardware thread count for the real
	// goroutine pool (0 = Dev.Threads()). Simulated time always uses the
	// modeled device's geometry.
	Threads int
	// Workers/Movers override the pipelined split (0 = paper's best split
	// via machine.DefaultPipeSplit).
	Workers, Movers int
	// GenBatchSize is the worker→mover SPSC handoff batch size under the
	// pipelined scheme: workers flush per-mover-class buffers of this many
	// messages through a single cursor publication, and movers drain whole
	// batches into the buffer. 0 resolves to 1 — the paper's per-element
	// handoff, which keeps simulated times bit-identical to the original
	// scheme; set DefaultGenBatch (or tune with autotune.TuneGenBatch) to
	// amortize the handshake. Ignored by the locking scheme.
	GenBatchSize int
	// Trace, when non-nil, records a per-superstep per-phase timeline of
	// the run (see internal/trace).
	Trace *trace.Recorder
	// Metrics, when non-nil, receives wall-clock phase samples and the
	// runtime event log (checkpoints, faults, degradations, resumes; see
	// internal/metrics). A nil sink disables all measurement at the cost of
	// one branch per phase, with no allocation on the iteration hot path —
	// the same contract as Trace. Hetero runs record each device's phases to
	// its own option's sink; run-level events go to the first non-nil sink
	// across the two device options.
	Metrics metrics.Sink
	// ExchangeTimeout bounds every cross-device exchange round in a
	// heterogeneous run: a peer that does not show up within the deadline
	// is declared dead and the run fails (or degrades to the surviving ranks
	// when checkpointing is on) instead of deadlocking. 0 = unbounded. For a
	// hetero run the first non-zero value across the two device options
	// wins (the interconnect is shared).
	ExchangeTimeout time.Duration
	// CheckpointEvery takes a superstep-boundary checkpoint of vertex
	// state and the active frontier every N completed supersteps; the app
	// must implement checkpoint.Snapshotter. After a device failure the
	// survivors restore the last checkpoint and finish without it.
	// 0 disables checkpointing. Hetero runs use the first non-zero value
	// across the two device options.
	CheckpointEvery int
	// CheckpointDir, when non-empty, flushes every captured checkpoint to
	// this directory through the durable store (atomic commits, CRC32C,
	// generation manifest), so a crashed process can cold-start from disk
	// with Resume. Requires CheckpointEvery > 0 (or Resume). Hetero runs
	// use the first non-empty value across the two device options.
	CheckpointDir string
	// CheckpointRetain bounds how many checkpoint generations the store
	// keeps on disk (0 = checkpoint.DefaultRetain; must be >= 2 so a
	// corrupt newest generation always leaves a fallback).
	CheckpointRetain int
	// Resume cold-starts the run from the newest verifiable generation in
	// CheckpointDir instead of from App.Init. Requires CheckpointDir; it
	// is an error when the directory holds no usable checkpoint.
	Resume bool
	// Fault, when non-nil, injects the planned faults (exchange drops,
	// delays, transient link failures, user-function panics) into the run.
	// Hetero runs use the first non-nil injector across the two options.
	Fault *fault.Injector
	// Rejoin lets a heterogeneous run heal after degradation:
	// when the fault plan declares the failed rank recovered (flaky/recover
	// events), the supervisor restarts its engine from the newest
	// checkpoint and re-admits it at a superstep barrier. Requires
	// CheckpointEvery > 0 or a CheckpointDir — rejoin replays the restarted
	// rank from a checkpoint, so a run that never captures one cannot heal
	// (InvalidOptionsError otherwise). Hetero runs OR the flag across the
	// two device options.
	Rejoin bool
	// Abort, when non-nil, requests a cooperative shutdown: the run stops
	// at the next superstep boundary once the channel is closed, captures a
	// final checkpoint when checkpointing is configured, and returns the
	// partial Result alongside a *RunAbortedError.
	Abort <-chan struct{}
	// StragglerThreshold arms the per-rank health scorer of heterogeneous
	// runs: a rank whose EWMA per-superstep time exceeds the threshold
	// turns suspect, and after a few consecutive over-threshold supersteps
	// is confirmed a straggler (see internal/core/health.go for the
	// hysteresis). 0 disables scoring. Hetero runs use the first non-zero
	// value across the device options.
	StragglerThreshold time.Duration
	// StragglerPolicy selects the mitigation applied to confirmed
	// stragglers: off (observe only), demote (soft-degrade at a checkpoint
	// barrier, reassigning the straggler's vertices to healthy survivors
	// while it stays a heartbeating non-owning member), or demote-rehab
	// (demote, then restore the rank via the rejoin path once its latency
	// re-normalizes). Demotion replays state from a checkpoint, so a
	// non-off policy requires CheckpointEvery > 0, and a
	// StragglerThreshold to detect stragglers with. Hetero runs use the
	// first non-off value across the device options.
	StragglerPolicy StragglerPolicy
}

// DefaultMaxIterations guards against non-terminating vertex programs.
const DefaultMaxIterations = 10000

// DefaultGenBatch is the recommended GenBatchSize for batched pipelined
// generation (re-exported from the pipeline package).
const DefaultGenBatch = pipeline.DefaultBatch

// traceLabel is the device label used in trace and metrics samples.
func (o Options) traceLabel() string {
	if o.TraceLabel != "" {
		return o.TraceLabel
	}
	return o.Dev.Name
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 2
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = DefaultMaxIterations
	}
	if o.Threads == 0 {
		o.Threads = o.Dev.Threads()
	}
	if o.Workers == 0 || o.Movers == 0 {
		o.Workers, o.Movers = machine.DefaultPipeSplit(o.Dev)
	}
	if o.GenBatchSize == 0 {
		o.GenBatchSize = 1
	}
	if o.PullAlpha == 0 {
		o.PullAlpha = DefaultPullAlpha
	}
	if o.PullBeta == 0 {
		o.PullBeta = DefaultPullBeta
	}
	return o
}

// InvalidOptionsError reports a rejected Options field (or a nil app/graph
// argument) at Run entry. Callers can errors.As against it to distinguish
// configuration mistakes from runtime failures.
type InvalidOptionsError struct {
	// Field names the offending Options field or argument.
	Field string
	// Reason says what is wrong with it.
	Reason string
}

func (e *InvalidOptionsError) Error() string {
	return fmt.Sprintf("core: invalid options: %s: %s", e.Field, e.Reason)
}

// validate checks the resolved options.
func (o Options) validate() error {
	if err := o.Dev.Validate(); err != nil {
		return &InvalidOptionsError{Field: "Dev", Reason: err.Error()}
	}
	if o.Scheme != SchemeLocking && o.Scheme != SchemePipelined {
		return &InvalidOptionsError{Field: "Scheme", Reason: fmt.Sprintf("unknown scheme %d", int(o.Scheme))}
	}
	if o.Threads < 1 {
		return &InvalidOptionsError{Field: "Threads", Reason: fmt.Sprintf("%d < 1", o.Threads)}
	}
	if o.Workers < 1 || o.Movers < 1 {
		return &InvalidOptionsError{Field: "Workers/Movers", Reason: fmt.Sprintf("%d/%d, both must be >= 1", o.Workers, o.Movers)}
	}
	if o.K < 1 {
		return &InvalidOptionsError{Field: "K", Reason: fmt.Sprintf("%d < 1", o.K)}
	}
	if o.GenBatchSize < 1 {
		return &InvalidOptionsError{Field: "GenBatchSize", Reason: fmt.Sprintf("%d < 1", o.GenBatchSize)}
	}
	if o.MaxIterations < 1 {
		return &InvalidOptionsError{Field: "MaxIterations", Reason: fmt.Sprintf("%d < 1", o.MaxIterations)}
	}
	if o.Direction != DirectionPush && o.Direction != DirectionPull && o.Direction != DirectionAuto {
		return &InvalidOptionsError{Field: "Direction", Reason: fmt.Sprintf("unknown direction %d (want push | pull | auto)", int(o.Direction))}
	}
	if o.PullAlpha <= 0 {
		return &InvalidOptionsError{Field: "PullAlpha", Reason: fmt.Sprintf("%g <= 0", o.PullAlpha)}
	}
	if o.PullBeta <= 0 {
		return &InvalidOptionsError{Field: "PullBeta", Reason: fmt.Sprintf("%g <= 0", o.PullBeta)}
	}
	if o.CheckpointEvery < 0 {
		return &InvalidOptionsError{Field: "CheckpointEvery", Reason: fmt.Sprintf("%d < 0", o.CheckpointEvery)}
	}
	if o.CheckpointRetain < 0 {
		return &InvalidOptionsError{Field: "CheckpointRetain", Reason: fmt.Sprintf("%d < 0", o.CheckpointRetain)}
	}
	if o.CheckpointRetain == 1 {
		return &InvalidOptionsError{Field: "CheckpointRetain", Reason: "1 < 2: corruption fallback needs a spare generation"}
	}
	if o.CheckpointDir != "" && o.CheckpointEvery == 0 && !o.Resume {
		return &InvalidOptionsError{Field: "CheckpointDir", Reason: "requires CheckpointEvery > 0 (or Resume) — a durable store with nothing to commit is a misconfiguration"}
	}
	if o.Resume && o.CheckpointDir == "" {
		return &InvalidOptionsError{Field: "Resume", Reason: "requires CheckpointDir: there is no store to resume from"}
	}
	if o.ExchangeTimeout < 0 {
		return &InvalidOptionsError{Field: "ExchangeTimeout", Reason: fmt.Sprintf("%s < 0", o.ExchangeTimeout)}
	}
	if o.Rejoin && o.CheckpointEvery == 0 && o.CheckpointDir == "" {
		return &InvalidOptionsError{Field: "Rejoin", Reason: "requires CheckpointEvery > 0 or CheckpointDir: rejoin replays the restarted rank from a checkpoint, and a run that never captures one cannot heal"}
	}
	if o.StragglerThreshold < 0 {
		return &InvalidOptionsError{Field: "StragglerThreshold", Reason: fmt.Sprintf("%s < 0", o.StragglerThreshold)}
	}
	switch o.StragglerPolicy {
	case StragglerOff:
	case StragglerDemote, StragglerDemoteRehab:
		if o.StragglerThreshold == 0 {
			return &InvalidOptionsError{Field: "StragglerPolicy", Reason: fmt.Sprintf("%s requires StragglerThreshold > 0: there is no straggler definition to act on", o.StragglerPolicy)}
		}
		if o.CheckpointEvery == 0 {
			return &InvalidOptionsError{Field: "StragglerPolicy", Reason: fmt.Sprintf("%s requires CheckpointEvery > 0: soft-degrade and rehabilitation act at checkpoint barriers", o.StragglerPolicy)}
		}
	default:
		return &InvalidOptionsError{Field: "StragglerPolicy", Reason: fmt.Sprintf("unknown policy %d (want off|demote|demote-rehab)", int(o.StragglerPolicy))}
	}
	return nil
}

// RunAbortedError reports a run stopped cooperatively via Options.Abort at a
// superstep boundary. The accompanying Result holds the partial run up to
// Superstep; when checkpointing is configured the final state was captured
// first, so the run can be resumed later.
type RunAbortedError struct {
	// Superstep is the boundary the run stopped at (completed supersteps).
	Superstep int64
}

func (e *RunAbortedError) Error() string {
	return fmt.Sprintf("core: run aborted at superstep %d", e.Superstep)
}

// abortRequested reports whether the abort channel is closed.
func abortRequested(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// validateRunArgs rejects nil app/graph arguments with a typed error before
// any engine state is built.
func validateRunArgs(app any, g *graph.CSR) error {
	if app == nil {
		return &InvalidOptionsError{Field: "app", Reason: "nil application"}
	}
	if g == nil {
		return &InvalidOptionsError{Field: "graph", Reason: "nil graph"}
	}
	return nil
}

// PhaseTimes is the simulated per-phase time breakdown (seconds on the
// modeled device).
type PhaseTimes struct {
	Generate float64
	Process  float64
	Update   float64
	Exchange float64
}

// Total sums all phases.
func (p PhaseTimes) Total() float64 {
	return p.Generate + p.Process + p.Update + p.Exchange
}

// Add accumulates o into p.
func (p *PhaseTimes) Add(o PhaseTimes) {
	p.Generate += o.Generate
	p.Process += o.Process
	p.Update += o.Update
	p.Exchange += o.Exchange
}

// Result reports one engine run.
type Result struct {
	// Iterations actually executed.
	Iterations int64
	// Converged is true when the run ended because no vertex stayed
	// active (as opposed to hitting MaxIterations).
	Converged bool
	// Counters aggregates the real event counts of the whole run.
	Counters machine.Counters
	// Phases is the simulated per-phase time on the modeled device.
	Phases PhaseTimes
	// SimSeconds is Phases.Total(): the modeled device time of the run.
	SimSeconds float64
	// WallSeconds is host wall-clock time (no cross-device meaning; see
	// machine package docs).
	WallSeconds float64
}
