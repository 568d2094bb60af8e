package machine

import "fmt"

// CostModel converts the event counters of one real execution step into
// simulated seconds on a modeled device, for one application profile.
//
// Every phase is modeled as a roofline: the larger of its compute-side time
// (scalar/vector ops, lock traffic, queue ops, scheduler fetches, divided by
// the threads working on it) and its memory-side time (bytes moved at the
// device's aggregate bandwidth), plus the per-step fork/join launch cost.
// Lock collisions add serialized time: the expected collision count (from
// ContentionStats over the real per-column insert counts) priced at
// ConflictNS, with a hard serial floor when a single column saturates.
type CostModel struct {
	Dev DeviceSpec
	App AppProfile
}

// NewCostModel validates the pair and returns a model.
func NewCostModel(dev DeviceSpec, app AppProfile) (CostModel, error) {
	if err := dev.Validate(); err != nil {
		return CostModel{}, err
	}
	if err := app.Validate(); err != nil {
		return CostModel{}, err
	}
	return CostModel{Dev: dev, App: app}, nil
}

// scalarNS is the device's per-op cost under this app's branchiness.
func (m CostModel) scalarNS() float64 {
	if m.App.Branchy {
		return m.Dev.ScalarNS * m.Dev.BranchPenalty
	}
	return m.Dev.ScalarNS
}

// memSeconds prices b bytes of buffer traffic at aggregate bandwidth.
func (m CostModel) memSeconds(b float64) float64 {
	return b / (m.Dev.MemBandwidthGBs * 1e9)
}

// launchSeconds prices k parallel step launches.
func (m CostModel) launchSeconds(k int64) float64 {
	return float64(k) * m.Dev.StepLaunchNS * 1e-9
}

// roof combines compute-side and memory-side time for one phase.
func roof(compute, mem float64) float64 {
	if mem > compute {
		return mem
	}
	return compute
}

// msgBytesStored is the buffer footprint of one message: its value plus the
// 4-byte redirected destination handling.
func (m CostModel) msgBytesStored() float64 { return float64(m.App.MsgBytes + 4) }

// GenerateLocking returns the simulated time of one message-generation step
// under the locking scheme with the given thread count.
func (m CostModel) GenerateLocking(c Counters, threads int) float64 {
	t := float64(threads)
	compute := (float64(c.EdgesTraversed)*m.App.GenOps*m.scalarNS() +
		float64(c.Messages)*m.Dev.LockNS +
		c.ConflictExpected*m.Dev.ConflictNS +
		float64(c.TaskFetches)*m.Dev.FetchNS) * 1e-9 / t
	mem := m.memSeconds(float64(c.EdgesTraversed)*8 + float64(c.Messages)*m.msgBytesStored() + float64(c.BufferResetBytes))
	return roof(compute, mem) + m.launchSeconds(1)
}

// GeneratePipelined returns the simulated time of one message-generation
// step under the worker/mover pipelining scheme. Workers and movers run
// concurrently; the step takes as long as the slower side (they overlap, per
// §IV-C), and movers lock only to allocate columns.
//
// The handoff is priced from the counters the pipeline actually reports:
// per-element runs charge one QueueOpNS push per message to the workers and
// one QueueOpNS pop per message to the movers (QueueOps == 2*Messages);
// batched runs instead charge QueueOpNS once per cursor publication
// (QueueBatchOps, split evenly between the pushing and popping side) plus a
// QueueBatchNS plain ring store per message on each side — which is the
// entire point of batching: the cross-core handshake is amortized over the
// batch.
func (m CostModel) GeneratePipelined(c Counters, workers, movers int) float64 {
	pushes := float64(c.QueueOps) / 2
	pops := pushes
	batchPushPubs := float64(c.QueueBatchOps) / 2
	batchPopPubs := float64(c.QueueBatchOps) - batchPushPubs
	var batchedMsgs float64
	if c.QueueBatchOps > 0 {
		batchedMsgs = float64(c.Messages)
	}
	worker := (float64(c.EdgesTraversed)*m.App.GenOps*m.scalarNS() +
		pushes*m.Dev.QueueOpNS +
		batchPushPubs*m.Dev.QueueOpNS + batchedMsgs*m.Dev.QueueBatchNS +
		float64(c.TaskFetches)*m.Dev.FetchNS) * 1e-9 / float64(workers)
	// Each message is popped and stored; insertNS models the redirection
	// lookup plus the store (one edge-grain op: the mover's access pattern
	// is far more cache-friendly than the workers' — it only walks its own
	// columns).
	insertNS := m.Dev.ScalarNS
	mover := (pops*m.Dev.QueueOpNS +
		batchPopPubs*m.Dev.QueueOpNS + batchedMsgs*m.Dev.QueueBatchNS +
		float64(c.Messages)*insertNS +
		float64(c.ColumnsUsed)*m.Dev.LockNS) * 1e-9 / float64(movers)
	compute := worker
	if mover > compute {
		compute = mover
	}
	mem := m.memSeconds(float64(c.EdgesTraversed)*8 + float64(c.Messages)*(m.msgBytesStored()+float64(m.App.MsgBytes+4)) + float64(c.BufferResetBytes)) // queue traffic doubles message movement
	// Coordinating two thread classes costs considerably more at the
	// fork/join points than a flat parallel-for: queue fill at start, queue
	// drain at the tail, and movers polling workers' completion.
	return roof(compute, mem) + 4.0*m.launchSeconds(1)
}

// Process returns the simulated time of one message-processing step.
// When vectorized (and the app's reduction is SIMD-eligible), the work is
// the charged number of vector rows priced at VecOpNS; otherwise each
// message costs a scalar op. Lane bubbles are therefore captured by the
// counted VecRows, not by a constant.
func (m CostModel) Process(c Counters, threads int, vectorized bool) float64 {
	t := float64(threads)
	var compute float64
	if vectorized && m.App.Reducible {
		compute = float64(c.VecRows) * m.App.ProcOps * m.Dev.VecOpNS * 1e-9 / t
	} else {
		compute = float64(c.ReducedMessages) * m.App.ProcOps * m.scalarNS() * 1e-9 / t
	}
	compute += float64(c.TaskFetches) * m.Dev.FetchNS * 1e-9 / t
	// No DRAM roofline here: the dynamic scheduler hands out task units
	// (vector arrays) that are L2-resident while reduced; the vector-op
	// cost already includes the L2 access. The paper's "processing can
	// become memory bound" shows up as the VecOpNS floor on wide lanes.
	return compute + m.launchSeconds(1)
}

// Pull returns the simulated time of one bottom-up (pull) sweep: each
// scanned in-edge costs one frontier-bitmap membership test plus, bounded
// above, the generate-grade arithmetic of the message it replaces; the
// memory side is the edge walk plus the gather of parent state. There is
// no lock traffic and no message-buffer store — that is the entire point
// of pulling — so dense supersteps trade Messages*LockNS for a plain
// bandwidth-bound scan.
func (m CostModel) Pull(c Counters, threads int) float64 {
	if c.PullEdgesScanned == 0 {
		return 0
	}
	t := float64(threads)
	compute := float64(c.PullEdgesScanned) * (m.App.GenOps + 1) * m.scalarNS() * 1e-9 / t
	mem := m.memSeconds(float64(c.PullEdgesScanned) * 12) // 8B edge walk + 4B parent-state gather
	return roof(compute, mem) + m.launchSeconds(1)
}

// Update returns the simulated time of one vertex-updating step.
func (m CostModel) Update(c Counters, threads int) float64 {
	t := float64(threads)
	compute := (float64(c.UpdatedVertices)*m.App.UpdOps*m.scalarNS() +
		float64(c.TaskFetches)*m.Dev.FetchNS) * 1e-9 / t
	mem := m.memSeconds(float64(c.UpdatedVertices) * 8)
	return roof(compute, mem) + m.launchSeconds(1)
}

// Sequential returns the simulated time of the plain single-thread C++-style
// implementation (Table II baselines): pure compute, no message buffer, no
// locks, no launches.
func (m CostModel) Sequential(c Counters) float64 {
	ops := float64(c.EdgesTraversed)*m.App.GenOps +
		float64(c.ReducedMessages)*m.App.ProcOps +
		float64(c.UpdatedVertices)*m.App.UpdOps
	return ops * m.scalarNS() * 1e-9
}

// OMP returns the simulated time of one iteration of the OpenMP baseline:
// a fused parallel loop over vertices that updates destinations in place
// under per-vertex OpenMP locks, with no SIMD (the paper confirms the
// compiler does not vectorize these irregular loops).
func (m CostModel) OMP(c Counters, threads int) float64 {
	t := float64(threads)
	compute := (float64(c.EdgesTraversed)*m.App.GenOps*m.scalarNS() +
		float64(c.ReducedMessages)*m.App.ProcOps*m.scalarNS() +
		float64(c.UpdatedVertices)*m.App.UpdOps*m.scalarNS() +
		float64(c.Messages)*m.Dev.OMPLockNS +
		c.ConflictExpected*m.Dev.ConflictNS) * 1e-9 / t
	mem := m.memSeconds(float64(c.EdgesTraversed) * 8)
	return roof(compute, mem) + m.launchSeconds(1)
}

// DefaultPipeSplit returns the worker/mover thread split the paper found
// best: on the MIC, 180 workers + 60 movers; proportionally 12 + 4 on the
// 16-thread CPU.
func DefaultPipeSplit(dev DeviceSpec) (workers, movers int) {
	total := dev.Threads()
	movers = total / 4
	if movers < 1 {
		movers = 1
	}
	return total - movers, movers
}

// String describes the model.
func (m CostModel) String() string {
	return fmt.Sprintf("CostModel(%s, %s)", m.Dev.Name, m.App.Name)
}
