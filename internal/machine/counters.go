package machine

// Counters records what actually happened during one (real) execution step
// or run: every field is a count of concrete events observed in the running
// data structures, never an estimate. The CostModel converts these into
// simulated device time.
type Counters struct {
	// Iterations is the number of BSP supersteps executed.
	Iterations int64
	// Steps is the number of parallel step launches (fork/join regions).
	Steps int64
	// ActiveVertices is the total count of vertices whose GenerateMessages
	// ran, summed over iterations.
	ActiveVertices int64
	// EdgesTraversed counts edges walked during message generation.
	EdgesTraversed int64
	// Messages counts messages inserted into the local message buffer.
	Messages int64
	// RemoteMessages counts messages destined for the other device (these
	// go to the remote buffer and across the link after combination).
	RemoteMessages int64
	// ColumnsUsed counts dynamic column allocations (one lock each in the
	// CSB allocation path).
	ColumnsUsed int64
	// ConflictExpected is the expected number of lock collisions under the
	// locking scheme, computed from the real per-column message counts and
	// the device thread count by ContentionStats.
	ConflictExpected float64
	// SerialFloorMsgs is the message count of the hottest saturated column
	// (0 when no column saturates); inserts to a saturated column fully
	// serialize, bounding the step from below.
	SerialFloorMsgs int64
	// QueueOps counts per-element SPSC cursor publications (pushes plus
	// pops) in the pipelined scheme with batch size 1; zero for batched
	// runs.
	QueueOps int64
	// QueueBatchOps counts batched SPSC cursor publications (PushBatch and
	// PopBatch calls that moved data) in the pipelined scheme with batch
	// size > 1; zero for per-element runs. Each publication covers up to a
	// whole batch of messages, so the model prices the cross-core handshake
	// per publication and the per-message element store at the far cheaper
	// QueueBatchNS.
	QueueBatchOps int64
	// BufferResetBytes is the message-buffer memory rewritten at the start
	// of the iteration (the CSB identity fill); it charges the framework's
	// buffer-storage overhead, which matters on the bandwidth-poor CPU.
	BufferResetBytes int64
	// VecRows counts the SIMD rows message processing is charged for: the
	// CSB's rows as packed in a canonical, arrival-order-independent
	// column order (csb.Buffer.ChargedRows), so the charge is deterministic.
	VecRows int64
	// ReducedMessages counts messages consumed by message processing
	// (vector or scalar path alike; the scalar path costs one op each).
	ReducedMessages int64
	// UpdatedVertices counts vertices whose UpdateVertex ran.
	UpdatedVertices int64
	// TaskFetches counts dynamic-scheduler task retrievals.
	TaskFetches int64
	// PullEdgesScanned counts in-edges examined by pull/bottom-up sweeps
	// (each is one frontier-membership test, plus the message arithmetic
	// when the parent is in the frontier).
	PullEdgesScanned int64
	// PullSupersteps counts supersteps executed in the pull direction.
	PullSupersteps int64
	// BytesSent is the total payload exchanged with the other device.
	BytesSent int64
	// Exchanges is the number of cross-device exchange rounds.
	Exchanges int64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Iterations += o.Iterations
	c.Steps += o.Steps
	c.ActiveVertices += o.ActiveVertices
	c.EdgesTraversed += o.EdgesTraversed
	c.Messages += o.Messages
	c.RemoteMessages += o.RemoteMessages
	c.ColumnsUsed += o.ColumnsUsed
	c.ConflictExpected += o.ConflictExpected
	if o.SerialFloorMsgs > c.SerialFloorMsgs {
		c.SerialFloorMsgs = o.SerialFloorMsgs
	}
	c.QueueOps += o.QueueOps
	c.QueueBatchOps += o.QueueBatchOps
	c.BufferResetBytes += o.BufferResetBytes
	c.VecRows += o.VecRows
	c.ReducedMessages += o.ReducedMessages
	c.UpdatedVertices += o.UpdatedVertices
	c.TaskFetches += o.TaskFetches
	c.PullEdgesScanned += o.PullEdgesScanned
	c.PullSupersteps += o.PullSupersteps
	c.BytesSent += o.BytesSent
	c.Exchanges += o.Exchanges
}

// ContentionStats derives the locking-contention counters from the real
// per-column insertion counts of one generation step.
//
// Model: while a thread inserts into column j, the probability that another
// of the threads-1 threads is concurrently targeting j is approximately
// rho_j = (threads-1) * m_j / M (each thread spends an m_j/M fraction of
// the step on column j), capped at 1 — in a closed system threads stall on
// hot columns rather than producing unbounded extra traffic. Each collision
// costs one coherence round trip (the device's ConflictNS). The expected
// collision count is sum_j min(rho_j, 1) * m_j: negligible on cold columns,
// approaching one per message when the receive pattern concentrates
// (TopoSort's "large number of messages sent to a single vertex", §V-C).
//
// serialFloor reports the hottest column's message count (diagnostic).
func ContentionStats(colCounts []int32, threads int) (expected float64, serialFloor int64) {
	if threads <= 1 || len(colCounts) == 0 {
		return 0, 0
	}
	var total int64
	for _, m := range colCounts {
		total += int64(m)
	}
	if total == 0 {
		return 0, 0
	}
	t1 := float64(threads - 1)
	for _, m := range colCounts {
		mj := float64(m)
		rho := t1 * mj / float64(total)
		if rho > 1 {
			rho = 1
		}
		expected += rho * mj
		if int64(m) > serialFloor {
			serialFloor = int64(m)
		}
	}
	return expected, serialFloor
}
